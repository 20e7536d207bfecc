"""Decode-epoch coalescing is an *optimization*, not a semantic change.

`ServingInstance` advances many decode tokens per ``STEP_COMPLETE`` event
(the decode-epoch fast path) instead of one event per token.  The contract
is bit-identical observable behavior: every per-request timestamp, every
answer-token time, every lifecycle-hook firing — in the same order, with
the same floats — as single-stepping.  Hypothesis drives random workloads
through every policy, over homogeneous and heterogeneous (tiered) pools,
and compares the two modes; deterministic regressions then pin the
off-by-one-prone epoch boundaries (quantum expiry, phase flip).

Both modes share one emission path: an epoch's final step sends only the
members at a milestone through the per-token ``_emit_token`` path, and
the rest get the plain-token bookkeeping.  ``TestMilestoneEmission``
checks that path against a per-token reference installed here, which
sends every member through ``_emit_token``.  Its counter gates pin how
many tokens take each path, how many reforms skip the residency walk,
how often instances are caught up and how many runs hold the answer
timing, the one thing each equivalence cannot show.
"""

import contextlib
from array import array
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ServingSession, SessionSubscriber
from repro.cluster.cluster import Cluster
from repro.config import (
    ClusterConfig,
    ExtensionPolicyConfig,
    InstanceConfig,
    PoolSpec,
    SchedulerConfig,
)
from repro.core.registry import policy_names
from repro.schedulers.base import IntraScheduler
from repro.serving.instance import ServingInstance
from repro.serving.monitor import InstanceMonitor
from repro.workload.datasets import DatasetSpec, LengthSpec
from repro.workload.request import Request
from repro.workload.trace import TraceConfig, build_trace

POLICIES = (
    "fcfs",
    "rr",
    "pascal",
    "pascal-nomigration",
    "pascal-nonadaptive",
    "phase-partitioned",
    "tiered-express",
    "slo-least-load",
)

#: (name, extensions) — the pool shapes each policy is exercised over.
POOLS = (
    ("homogeneous", ExtensionPolicyConfig()),
    (
        "tiered",
        ExtensionPolicyConfig(
            least_load_weighted=True,
            pool=PoolSpec(express_instances=1, express_threshold_tokens=60),
        ),
    ),
)


@st.composite
def workload_spec(draw):
    """Specs, not Request objects: runs mutate requests, so each run
    rebuilds its own copies."""
    n = draw(st.integers(min_value=1, max_value=10))
    specs = []
    t = 0.0
    for rid in range(n):
        t += draw(st.floats(min_value=0.0, max_value=0.4, allow_nan=False))
        specs.append(
            (
                rid,
                draw(st.integers(min_value=1, max_value=40)),
                draw(st.integers(min_value=0, max_value=80)),
                draw(st.integers(min_value=1, max_value=60)),
                t,
            )
        )
    return specs


def build_requests(specs):
    return [
        Request(
            rid=rid,
            prompt_len=prompt,
            reasoning_len=reasoning,
            answer_len=answer,
            arrival_t=arrival,
        )
        for rid, prompt, reasoning, answer, arrival in specs
    ]


def cluster_config(extensions, epoch, quantum=16):
    return ClusterConfig(
        n_instances=2,
        instance=InstanceConfig(
            kv_capacity_tokens=2400,
            scheduler=SchedulerConfig(token_quantum=quantum),
            epoch_coalescing=epoch,
        ),
        extensions=extensions,
    )


def fingerprint(requests):
    """Every externally observable per-request float and count."""
    return [
        (
            req.rid,
            req.first_sched_t,
            req.prefill_end_t,
            req.reasoning_end_t,
            req.first_answer_t,
            req.answer_sched_t,
            req.done_t,
            req.n_migrations,
            req.generated_tokens,
            tuple(req.answer_token_times),
        )
        for req in requests
    ]


def run_batch(policy, specs, extensions, epoch, quantum=16):
    requests = build_requests(specs)
    cluster = Cluster(cluster_config(extensions, epoch, quantum), policy=policy)
    cluster.run_trace(requests)
    assert cluster.all_finished()
    for inst in cluster.instances:
        inst.check_invariants()
    return fingerprint(requests), [
        (inst.tokens_generated, inst.decode_steps)
        for inst in cluster.instances
    ]


class _HookRecorder(SessionSubscriber):
    """Captures the lifecycle stream verbatim, in dispatch order."""

    def __init__(self):
        self.events = []

    def on_admit(self, handle, now, instance_id):
        self.events.append(("admit", handle.rid, now, instance_id))

    def on_phase_change(self, handle, now):
        self.events.append(("phase", handle.rid, now))

    def on_first_token(self, handle, now):
        self.events.append(("first-token", handle.rid, now))

    def on_complete(self, handle, now):
        self.events.append(("complete", handle.rid, now))


def run_session(policy, specs, extensions, epoch):
    session = ServingSession(
        policy=policy, config=cluster_config(extensions, epoch)
    )
    recorder = session.subscribe(_HookRecorder())
    for req in build_requests(specs):
        session.submit(req)
    metrics = session.drain()
    return recorder.events, fingerprint(
        sorted(metrics.requests, key=lambda r: r.rid)
    )


class TestEpochEquivalence:
    @given(workload_spec(), st.sampled_from(POLICIES), st.sampled_from(POOLS))
    @settings(max_examples=40, deadline=None)
    def test_batch_run_bit_identical(self, specs, policy, pool):
        _, extensions = pool
        fast = run_batch(policy, specs, extensions, epoch=True)
        slow = run_batch(policy, specs, extensions, epoch=False)
        assert fast == slow

    @given(workload_spec(), st.sampled_from(POLICIES))
    @settings(max_examples=15, deadline=None)
    def test_lifecycle_hooks_fire_identically(self, specs, policy):
        extensions = POOLS[0][1]
        fast_events, fast_fp = run_session(policy, specs, extensions, True)
        slow_events, slow_fp = run_session(policy, specs, extensions, False)
        assert fast_events == slow_events
        assert fast_fp == slow_fp


class TestEpochBoundaries:
    """Deterministic off-by-one regressions at the epoch-horizon edges."""

    def _ab(self, specs, policy="pascal", quantum=16):
        extensions = POOLS[0][1]
        fast = run_batch(policy, specs, extensions, True, quantum)
        slow = run_batch(policy, specs, extensions, False, quantum)
        assert fast == slow

    def test_quantum_expiry_exact_boundary(self):
        # Decode lengths that are exact multiples of the quantum: the
        # epoch must end *on* the expiry step, not one past it.
        quantum = 8
        specs = [
            (0, 10, 2 * quantum, quantum, 0.0),
            (1, 10, quantum, 2 * quantum, 0.0),
            (2, 10, 0, 3 * quantum, 0.1),
        ]
        self._ab(specs, quantum=quantum)

    def test_phase_flip_exact_boundary(self):
        # reasoning_len == 1 flips phase on the very first decode token;
        # the flip must land on an epoch-final step so migration and
        # re-banding see it at the true event time.
        specs = [
            (0, 10, 1, 5, 0.0),
            (1, 10, 2, 5, 0.0),
            (2, 10, 1, 1, 0.05),
        ]
        self._ab(specs)

    def test_single_token_requests(self):
        # Horizon floor: a one-token answer is a one-step epoch.
        specs = [(0, 4, 0, 1, 0.0), (1, 4, 0, 1, 0.0), (2, 4, 1, 1, 0.0)]
        self._ab(specs)

    def test_block_crossing_pressure(self):
        # A tight pool forces the block-boundary cap to bound horizons.
        extensions = POOLS[0][1]
        specs = [(rid, 30, 40, 40, 0.01 * rid) for rid in range(8)]
        for policy in ("fcfs", "pascal"):
            fast_requests = build_requests(specs)
            config = ClusterConfig(
                n_instances=1,
                instance=InstanceConfig(
                    kv_capacity_tokens=700, epoch_coalescing=True
                ),
                extensions=extensions,
            )
            cluster = Cluster(config, policy=policy)
            cluster.run_trace(fast_requests)
            slow_requests = build_requests(specs)
            config_slow = ClusterConfig(
                n_instances=1,
                instance=InstanceConfig(
                    kv_capacity_tokens=700, epoch_coalescing=False
                ),
                extensions=extensions,
            )
            cluster_slow = Cluster(config_slow, policy=policy)
            cluster_slow.run_trace(slow_requests)
            assert fingerprint(fast_requests) == fingerprint(slow_requests)


def per_token_emit_step(self, j):
    """Reference ``ServingInstance._emit_step``: every member of step
    ``j`` takes the per-token path through ``_emit_token``."""
    epoch = self._epoch
    now = epoch.times[j]
    self.decode_steps += 1
    self._emitting = True
    try:
        for req in epoch.plan.requests:
            self._emit_token(req, now)
    finally:
        self._emitting = False
    epoch.emitted = j + 1


def run_emission(policy, specs, extensions, epoch, quantum, reference):
    """Everything token emission can touch, from one session run with
    the token log on."""
    session = ServingSession(
        policy=policy, config=cluster_config(extensions, epoch, quantum)
    )
    recorder = session.subscribe(_HookRecorder())
    token_log = session.cluster.enable_token_log()
    requests = build_requests(specs)
    emission = (
        mock.patch.object(ServingInstance, "_emit_step", per_token_emit_step)
        if reference
        else contextlib.nullcontext()
    )
    with emission:
        for req in requests:
            session.submit(req)
        session.drain()
    instances = session.cluster.instances
    for inst in instances:
        inst.check_invariants()
    # The scheduler-facing state a skipped milestone hook leaves behind.
    scheduling = [
        (req.quantum_used, req.level, req.demoted, req.n_preemptions,
         req.breakdown)
        for req in requests
    ]
    return (
        recorder.events,
        fingerprint(requests),
        scheduling,
        [
            (inst.tokens_generated, inst.decode_steps)
            for inst in instances
        ],
        token_log,
    )


def short_chat_trace(n_requests=120, seed=5):
    """Short chat arriving far faster than two small instances serve it."""
    dataset = DatasetSpec(
        name="short-chat",
        prompt=LengthSpec(mean=60.0, sigma=0.5, lo=8, hi=256),
        reasoning=LengthSpec(mean=96.0, sigma=0.6, lo=8, hi=512),
        answering=LengthSpec(mean=48.0, sigma=0.5, lo=8, hi=256),
    )
    return build_trace(
        TraceConfig(
            dataset=dataset,
            n_requests=n_requests,
            arrival_rate_per_s=80.0,
            seed=seed,
        )
    )


#: policy -> (tokens through ``Request.record_token``, tokens generated)
#: for :func:`short_chat_trace` on two 6000-token instances with a
#: 32-token quantum.  Only the prefill tokens and the milestone tokens
#: take the per-token path: 4 per request, plus each quantum expiry.
#: With every final-step token on that path, fcfs made 11506 calls and
#: pascal 15138.
PER_TOKEN_GATE = {
    "fcfs": (480, 18174),
    "rr": (977, 18174),
    "oracle": (480, 18174),
    "pascal": (920, 18174),
    "pascal-nomigration": (920, 18174),
    "pascal-nonadaptive": (920, 18174),
    "pascal-ri-only": (920, 18174),
    "phase-partitioned": (920, 18174),
    "slo-least-load": (954, 18174),
    "length-predictive": (920, 18174),
    "tiered-express": (480, 18174),
    "speculative-replace": (920, 18174),
}


#: policy -> (reforms that took ``IntraScheduler.steady_plan``, reforms
#: that took ``IntraScheduler.admission_plan``, reforms that walked) in
#: the same session.  An admission into a steady instance prefills
#: without a walk, and the decode reform after that prefill is steady.
#: While every admission cleared steady state, so that both walked, fcfs
#: split (89, 0, 296) and pascal (130, 0, 407).
STEADY_GATE = {
    "fcfs": (138, 77, 170),
    "rr": (211, 77, 244),
    "oracle": (138, 77, 170),
    "pascal": (179, 77, 281),
    "pascal-nomigration": (165, 77, 294),
    "pascal-nonadaptive": (182, 77, 285),
    "pascal-ri-only": (177, 77, 297),
    "phase-partitioned": (310, 27, 193),
    "slo-least-load": (252, 82, 232),
    "length-predictive": (187, 82, 273),
    "tiered-express": (59, 27, 294),
    "speculative-replace": (183, 83, 280),
}


#: policy -> ``InstanceMonitor.answering_slo_ok`` (``t_i``) queries in
#: the same session: one per decision, plus one per instance passed
#: over as violating.  Policies without an SLO filter make none.  While every
#: decision read ``t_i`` on every instance, pascal made 480 and
#: slo-least-load 480.
CENSUS_GATE = {
    "fcfs": 0,
    "rr": 0,
    "oracle": 0,
    "pascal": 326,
    "pascal-nomigration": 120,
    "pascal-nonadaptive": 335,
    "pascal-ri-only": 330,
    "phase-partitioned": 0,
    "slo-least-load": 263,
    "length-predictive": 318,
    "tiered-express": 120,
    "speculative-replace": 324,
}


#: policy -> (``ServingInstance.sync`` calls, ``_bulk_advance`` passes)
#: in the same session.  Census reads add an instance's owed steps
#: instead of catching it up, so only mutations and request snapshots
#: sync; a read that catches instances up again moves both.  A drained
#: engine leaves no epoch open, so the drain syncs nothing.
#: While every arrival and phase transition caught every instance up,
#: fcfs made (924, 142) and pascal (2064, 106); while slo-least-load's
#: load key caught each instance up, it made (873, 100), and while
#: length-predictive's predicted footprint did, it made (569, 96) and
#: speculative-replace (630, 109).
SYNC_GATE = {
    "fcfs": (202, 117),
    "rr": (202, 113),
    "oracle": (202, 117),
    "pascal": (382, 101),
    "pascal-nomigration": (202, 101),
    "pascal-nonadaptive": (424, 100),
    "pascal-ri-only": (364, 103),
    "phase-partitioned": (912, 133),
    "slo-least-load": (429, 99),
    "length-predictive": (327, 96),
    "tiered-express": (192, 98),
    "speculative-replace": (388, 108),
}


#: policy -> (answer-timing runs over all requests, decode steps held by
#: the instances' step logs) in the same session.  A request's answer
#: timing is a run per stint in a batch, and only epochs with an
#: answering member are logged (of 879 decode steps, fcfs logged 745).
#: Opening a run at every epoch for every answering member would make
#: 3146 runs under fcfs and 4185 under pascal, for 5529 answer tokens.
RUN_GATE = {
    "fcfs": (139, 745),
    "rr": (231, 736),
    "oracle": (139, 745),
    "pascal": (241, 600),
    "pascal-nomigration": (238, 642),
    "pascal-nonadaptive": (248, 580),
    "pascal-ri-only": (244, 594),
    "phase-partitioned": (120, 542),
    "slo-least-load": (206, 706),
    "length-predictive": (234, 608),
    "tiered-express": (124, 610),
    "speculative-replace": (239, 601),
}


@contextlib.contextmanager
def counting_catch_ups():
    """Count ``ServingInstance.sync`` calls and ``_bulk_advance`` passes,
    in a dict the block fills."""
    counts = {"sync": 0, "bulk": 0}
    sync = ServingInstance.sync
    bulk_advance = ServingInstance._bulk_advance

    def counting_sync(inst, *args):
        counts["sync"] += 1
        sync(inst, *args)

    def counting_bulk_advance(inst, j0, j1):
        counts["bulk"] += 1
        bulk_advance(inst, j0, j1)

    with mock.patch.object(
        ServingInstance, "sync", counting_sync
    ), mock.patch.object(
        ServingInstance, "_bulk_advance", counting_bulk_advance
    ):
        yield counts


@contextlib.contextmanager
def counting_reforms():
    """Count the reforms that take ``IntraScheduler.steady_plan``, those
    that take ``IntraScheduler.admission_plan`` and those that walk, in a
    dict the block fills."""
    counts = {"steady": 0, "admission": 0, "walked": 0}
    steady_plan = IntraScheduler.steady_plan
    admission_plan = IntraScheduler.admission_plan
    walk = IntraScheduler.walk

    def counting_steady(scheduler, inst):
        plan = steady_plan(scheduler, inst)
        counts["steady"] += plan is not None
        return plan

    def counting_admission(scheduler, inst, now):
        plan = admission_plan(scheduler, inst, now)
        counts["admission"] += plan is not None
        return plan

    def counting_walk(scheduler, inst, now):
        counts["walked"] += 1
        return walk(scheduler, inst, now)

    with mock.patch.object(
        IntraScheduler, "steady_plan", counting_steady
    ), mock.patch.object(
        IntraScheduler, "admission_plan", counting_admission
    ), mock.patch.object(IntraScheduler, "walk", counting_walk):
        yield counts


@contextlib.contextmanager
def counting_census():
    """Count ``InstanceMonitor.answering_slo_ok`` (``t_i``) queries, in a
    dict the block fills."""
    counts = {"t_i": 0}
    answering_slo_ok = InstanceMonitor.answering_slo_ok

    def counting(monitor, inst, now):
        counts["t_i"] += 1
        return answering_slo_ok(monitor, inst, now)

    with mock.patch.object(InstanceMonitor, "answering_slo_ok", counting):
        yield counts


def run_census(session):
    """(answer-timing runs, logged decode steps) of a drained session:
    every run of every request, and every step-log chunk an instance or
    a run holds."""
    instances = session.cluster.instances
    chunks = {id(inst.step_log): inst.step_log for inst in instances}
    runs = 0
    for req in session.cluster.submitted:
        for chunk, _, _ in req.answer_runs():
            runs += 1
            if isinstance(chunk, array):  # not a prefill token's own run
                chunks[id(chunk)] = chunk
    return runs, sum(len(chunk) for chunk in chunks.values())


def drain_gate_session(policy):
    """:func:`short_chat_trace` on two 6000-token instances with a 32-token
    quantum, drained: the gates' session."""
    session = ServingSession(
        policy=policy,
        config=ClusterConfig(
            n_instances=2,
            instance=InstanceConfig(
                kv_capacity_tokens=6000,
                scheduler=SchedulerConfig(token_quantum=32),
            ),
        ),
    )
    session.attach(short_chat_trace())
    session.drain()
    return session


class TestMilestoneEmission:
    @given(
        workload_spec(),
        st.sampled_from(policy_names()),
        st.sampled_from(POOLS),
        st.booleans(),
        st.sampled_from((1, 2, 3, 16)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_token_reference(
        self, specs, policy, pool, epoch, quantum
    ):
        _, extensions = pool
        fast = run_emission(policy, specs, extensions, epoch, quantum, False)
        slow = run_emission(policy, specs, extensions, epoch, quantum, True)
        assert fast == slow

    def test_per_token_share_gate(self):
        """A fast path switched off changes no result, only this count."""
        assert set(PER_TOKEN_GATE) <= set(policy_names())
        counted = {}
        for policy in PER_TOKEN_GATE:
            calls = 0
            record = Request.record_token

            def counting(req, now):
                nonlocal calls
                calls += 1
                record(req, now)

            with mock.patch.object(Request, "record_token", counting):
                session = drain_gate_session(policy)
            tokens = sum(
                inst.tokens_generated for inst in session.cluster.instances
            )
            counted[policy] = (calls, tokens)
        assert counted == PER_TOKEN_GATE

    def test_steady_reform_gate(self):
        """The steady and admission paths switched off change no result,
        only this split (``tests/test_steady_state.py`` holds the
        equivalence)."""
        assert set(STEADY_GATE) <= set(policy_names())
        counted = {}
        for policy in STEADY_GATE:
            with counting_reforms() as counts:
                session = drain_gate_session(policy)
            reforms = sum(inst.reforms for inst in session.cluster.instances)
            split = (counts["steady"], counts["admission"], counts["walked"])
            assert sum(split) == reforms
            counted[policy] = split
        assert counted == STEADY_GATE

    def test_census_gate(self):
        """Placement and phase routing read ``t_i`` in load order, up to
        the first clean instance (``tests/test_placement.py`` holds the
        equivalence with the eager filter)."""
        assert set(CENSUS_GATE) <= set(policy_names())
        counted = {}
        for policy in CENSUS_GATE:
            with counting_census() as counts:
                drain_gate_session(policy)
            counted[policy] = counts["t_i"]
        assert counted == CENSUS_GATE

    def test_run_gate(self):
        """Answer timing is kept as runs into shared step logs, not as
        per-token lists (``tests/test_answer_runs.py`` holds the
        equivalence with the token log)."""
        assert set(RUN_GATE) <= set(policy_names())
        counted = {
            policy: run_census(drain_gate_session(policy))
            for policy in RUN_GATE
        }
        assert counted == RUN_GATE

    def test_catch_up_gate(self):
        """Census reads write nothing: only mutations and snapshots catch
        an instance up (``tests/test_census_reads.py`` holds the
        equivalence)."""
        assert set(SYNC_GATE) <= set(policy_names())
        counted = {}
        for policy in SYNC_GATE:
            with counting_catch_ups() as counts:
                drain_gate_session(policy)
            counted[policy] = (counts["sync"], counts["bulk"])
        assert counted == SYNC_GATE
