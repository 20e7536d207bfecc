"""First-class cancellation: every lifecycle point, every policy.

A client may abandon a request at any instant — before its arrival
dispatches, while queued, mid-prefill, mid-reasoning, mid-answering,
parked in the deferral waiting room, or with its KV in flight between
instances.  These tests pin the contract:

* cancelling never corrupts the simulation: the conservation law
  ``submitted = completed + rejected + cancelled + in-flight`` holds
  between events, and every instance's ``check_invariants()`` stays
  green (Hypothesis, all policies x pool shapes);
* a cancelled request is terminal, carries ``cancelled_t``, frees its KV
  footprint, and enters no latency or SLO view;
* cancellations survive the disk codec, the shard merge, and the trace
  format (version-2 ``cancel_t``), and replay deterministically.
"""

from __future__ import annotations

import math

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
from repro.config import (
    ClusterConfig,
    ExtensionPolicyConfig,
    InstanceConfig,
    PoolSpec,
    SchedulerConfig,
)
from repro.core.registry import policy_names
from repro.harness.cache import metrics_from_payload, metrics_to_payload
from repro.metrics.collector import collect
from repro.perfmodel.unit import UnitPerfModel
from repro.serve.record import stamp_live_cancels
from repro.shard.merge import merge_metrics
from repro.workload.request import Phase, Request, ReqState
from repro.workload.trace import (
    ReplayTraceConfig,
    TraceFormatError,
    build_replay_trace,
    dump_trace,
    load_trace,
)

POOL_SHAPES = {
    "homogeneous": ExtensionPolicyConfig(),
    # Aggressive speculative knobs so ``speculative-replace`` actually
    # defers on these tiny workloads (mirrors tests/test_invariants.py).
    "heterogeneous": ExtensionPolicyConfig(
        least_load_weighted=True,
        pool=PoolSpec(express_instances=2, express_threshold_tokens=30),
        speculative_defer_s=0.05,
        speculative_min_observations=5,
        speculative_pressure_tokens=50,
        speculative_long_tokens=20,
    ),
}


def build_cluster(
    policy: str = "pascal",
    extensions: ExtensionPolicyConfig | None = None,
    n_instances: int = 3,
    kv_capacity: int = 256,
) -> Cluster:
    config = ClusterConfig(
        n_instances=n_instances,
        instance=InstanceConfig(
            kv_capacity_tokens=kv_capacity,
            scheduler=SchedulerConfig(token_quantum=8),
        ),
        extensions=extensions or ExtensionPolicyConfig(),
    )
    return Cluster(config, policy=policy, perf=UnitPerfModel(0.01))


def make_session(policy: str = "pascal") -> ServingSession:
    config = ClusterConfig(
        n_instances=2,
        instance=InstanceConfig(
            kv_capacity_tokens=1024,
            scheduler=SchedulerConfig(token_quantum=8),
        ),
    )
    return ServingSession(policy=policy, config=config, perf=UnitPerfModel(0.01))


def step_until_cancelled(cluster: Cluster, req: Request) -> None:
    """Dispatch events until ``req``'s scheduled ``CANCEL`` has run."""
    while not req.cancelled:
        assert cluster.engine.step(), f"request {req.rid} was never cancelled"


#: One request: lengths, inter-arrival gap, and an optional cancel delay
#: after arrival (None = the client stays).  Small delays catch requests
#: queued or in prefill, large ones mid-decode or already finished.
cancellable_tuples = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        st.one_of(
            st.none(),
            st.floats(min_value=0.001, max_value=3.0, allow_nan=False),
        ),
    ),
    min_size=1,
    max_size=8,
)


def trace_from(tuples) -> list[Request]:
    requests = []
    t = 0.0
    for rid, (prompt, reasoning, answer, gap, cancel_delay) in enumerate(
        tuples
    ):
        t += gap
        req = Request(
            rid=rid,
            prompt_len=prompt,
            reasoning_len=reasoning,
            answer_len=answer,
            arrival_t=t,
            dataset="short" if reasoning <= 20 else "long",
        )
        if cancel_delay is not None:
            req.cancel_at = t + cancel_delay
        requests.append(req)
    return requests


@pytest.mark.parametrize("shape", sorted(POOL_SHAPES))
@pytest.mark.parametrize("policy", policy_names())
@settings(max_examples=4, deadline=None, derandomize=True)
@given(tuples=cancellable_tuples)
def test_cancel_anywhere_preserves_invariants(policy, shape, tuples):
    """Scripted cancels at arbitrary lifecycle points never corrupt state."""
    cluster = build_cluster(policy, POOL_SHAPES[shape])
    requests = trace_from(tuples)
    cluster.submit(requests)

    while cluster.engine.step():
        # Conservation between events: every submitted request is on
        # exactly one instance, crossing the fabric, awaiting its
        # (re-)arrival dispatch, or terminal.  A pre-arrival cancel moves
        # a request straight from pending to cancelled; nothing may leak.
        on_instances = sum(len(inst.requests) for inst in cluster.instances)
        assert (
            len(cluster.submitted)
            == len(cluster.completed)
            + len(cluster.rejected)
            + len(cluster.cancelled)
            + cluster.migrations.in_flight
            + on_instances
            + cluster.pending_arrivals
        ), f"request leak at t={cluster.engine.now}"
        for inst in cluster.instances:
            inst.check_invariants()

    assert cluster.all_finished()
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
    tuples=cancellable_tuples,
    actions=st.lists(
        st.sampled_from(["admit", "reject", "defer"]), min_size=8, max_size=8
    ),
)
def test_handle_status_follows_the_request(policy, shape, tuples, actions):
    """A handle's status, read from its request, is the status each
    lifecycle event implies, at every callback and after the drain."""
    rejects = {rid for rid, a in enumerate(actions) if a == "reject"}
    defers = {rid for rid, a in enumerate(actions) if a == "defer"}
    config = ClusterConfig(
        n_instances=3,
        instance=InstanceConfig(
            kv_capacity_tokens=256,
            scheduler=SchedulerConfig(token_quantum=8),
        ),
        extensions=POOL_SHAPES[shape],
    )
    session = ServingSession(
        policy=policy,
        config=config,
        admission=ScriptedGate(rejects, defers),
        perf=UnitPerfModel(0.01),
    )
    checker = session.subscribe(StatusChecker())
    handles = [session.submit(req) for req in trace_from(tuples)]
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
        cluster = build_cluster()
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
        cluster = build_cluster()
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
        cluster = build_cluster()
        req = Request(rid=0, prompt_len=8, reasoning_len=10, answer_len=200)
        cluster.submit_one(req)
        while cluster.engine.step():
            if req.phase is Phase.ANSWERING and req.generated_tokens > 20:
                assert cluster.request_cancel(req)
                break
        step_until_cancelled(cluster, req)
        assert req.phase is Phase.ANSWERING
        assert req.first_answer_t is not None  # tokens already streamed
        cluster.run()
        assert cluster.all_finished()
        for inst in cluster.instances:
            inst.check_invariants()

    def test_cancel_while_migrating(self):
        cluster = build_cluster(n_instances=2, kv_capacity=1600)
        src = cluster.instances[0]
        req = Request(rid=1, prompt_len=64, reasoning_len=3, answer_len=3)
        filler = Request(rid=2, prompt_len=32, reasoning_len=200, answer_len=5)
        # Direct-admit both on the source: the filler's reasoning load
        # makes the other instance the better answering home, so the
        # phase boundary triggers a migration.
        cluster.submitted.extend([req, filler])
        src.admit(req, 0.0)
        src.admit(filler, 0.0)
        migrated = False
        while cluster.engine.step():
            if req.state is ReqState.MIGRATING:
                migrated = True
                assert cluster.migrations.in_flight == 1
                assert cluster.request_cancel(req)
                break
        assert migrated, "scenario no longer triggers a migration"
        step_until_cancelled(cluster, req)
        # Cancelled on the wire: the transfer never landed.
        assert cluster.migrations.in_flight == 0
        assert req.n_migrations == 0
        cluster.run()
        assert filler.finished
        for inst in cluster.instances:
            inst.check_invariants()
            assert inst.pool.gpu_used_blocks == 0

    def test_cancel_while_deferred(self):
        cluster = build_cluster(
            "speculative-replace", POOL_SHAPES["heterogeneous"]
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
        target = None
        while cluster.engine.step():
            deferred = cluster.deferred()
            if deferred:
                target = deferred[0]
                assert cluster.request_cancel(target)
                break
        assert target is not None, "policy no longer defers here"
        step_until_cancelled(cluster, target)
        # Cancelled in the waiting room: never placed, and gone from it.
        assert target.instance_id is None
        assert target not in cluster.deferred()
        cluster.run()
        assert cluster.all_finished()
        assert target.cancelled


class TestTerminalEdges:
    def test_scripted_cancel_after_completion_is_noop(self):
        cluster = build_cluster()
        req = Request(rid=0, prompt_len=8, reasoning_len=5, answer_len=5)
        req.cancel_at = 1e9
        cluster.submit_one(req)
        cluster.run()
        assert req.finished
        assert cluster.cancelled == []

    def test_double_cancel_is_noop(self):
        cluster = build_cluster()
        req = Request(rid=0, prompt_len=8, reasoning_len=150, answer_len=5)
        cluster.submit_one(req)
        while cluster.engine.step():
            if cluster.engine.now > 0.3:  # mid-decode (done ~1.55s)
                break
        assert not req.finished
        # Both are scheduled; the second CANCEL dispatches as a no-op.
        assert cluster.request_cancel(req) is True
        assert cluster.request_cancel(req) is True
        step_until_cancelled(cluster, req)
        assert cluster.request_cancel(req) is False
        cluster.run()
        assert len(cluster.cancelled) == 1

    def test_cancel_rejected_request_is_noop(self):
        session = ServingSession(
            policy="pascal",
            config=ClusterConfig(
                n_instances=1,
                instance=InstanceConfig(kv_capacity_tokens=256),
            ),
            perf=UnitPerfModel(0.01),
            admission=MaxInFlightAdmission(1),
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
