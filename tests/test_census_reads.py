"""Census reads are exact at the current instant and write nothing.

Placement (Algorithm 1) and phase routing (Algorithm 2) read every
instance's ``t_i``, ``m_i``, ``r_i`` and ``a_i``, and some policies also
weigh free GPU KV, pending decode tokens or predicted reasoning growth
(``length-predictive``).  An instance in the middle of
a decode epoch has steps in the past whose tokens it has not recorded
yet (``ServingInstance.sync`` records them).  The reads add those owed
steps to what the members record instead of catching the instance up.
After every engine event, on every instance, each read must leave every
member's token records and the epoch untouched, and must equal the same
read after ``sync``.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.config import (
    ClusterConfig,
    InstanceConfig,
    SchedulerConfig,
    SLOConfig,
)
from repro.core.extensions import LengthPredictivePolicy
from repro.core.registry import policy_names
from repro.serving.instance import RequestSet
from repro.sim.events import EventKind
from repro.workload.request import ReqState, Request
from tests.test_epoch_equivalence import (
    POOLS,
    build_requests,
    drain_gate_session,
    fingerprint,
)
from tests.test_steady_state import tight_workload

#: Every census read a policy or admission gate makes, as
#: ``read(monitor, inst, now)``.
READS = (
    lambda monitor, inst, now: inst.total_kv_tokens(),
    lambda monitor, inst, now: inst.gpu_free_tokens(),
    lambda monitor, inst, now: monitor.answering_slo_ok(inst, now),
    lambda monitor, inst, now: monitor.kv_footprint(inst),
    lambda monitor, inst, now: monitor.pending_decode_tokens(inst),
    lambda monitor, inst, now: monitor.reasoning_count(inst),
    lambda monitor, inst, now: monitor.fresh_answering_count(inst),
)


def token_records(inst):
    """What a catch-up writes: the members' token and KV records, the
    pool's block count and the epoch's emitted index."""
    epoch = inst._epoch
    members = list(inst.requests)
    if epoch is not None:
        members += epoch.plan.requests
    return (
        [
            (r.rid, r.generated_tokens, r.kv_tokens, r.quantum_used,
             len(r.answer_token_times))
            for r in members
        ],
        inst.pool.gpu_used_blocks,
        None if epoch is None else epoch.emitted,
    )


def read_all(cluster, inst, now):
    reads = [read(cluster.monitor, inst, now) for read in READS]
    if isinstance(cluster.policy, LengthPredictivePolicy):
        reads.append(cluster.policy.predicted_footprint(inst))
    return reads


def run_checked(policy, specs, extensions, epoch, quantum, capacity):
    """Drain one run on three instances, checking the reads on every
    instance after every event; returns ``(checks with owed steps,
    checks)``."""
    config = ClusterConfig(
        n_instances=3,
        instance=InstanceConfig(
            kv_capacity_tokens=capacity,
            scheduler=SchedulerConfig(token_quantum=quantum),
            epoch_coalescing=epoch,
        ),
        extensions=extensions,
    )
    cluster = Cluster(config, policy=policy)
    cluster.submit(build_requests(specs))
    engine = cluster.engine
    owed = checked = 0
    while engine.step():
        now = engine.now
        for inst in cluster.instances:
            before = token_records(inst)
            unsynced = read_all(cluster, inst, now)
            assert token_records(inst) == before
            owed += inst.owed_steps(now) > 0
            checked += 1
            inst.sync(now)
            assert inst.owed_steps(now) == 0
            assert read_all(cluster, inst, now) == unsynced
            inst.check_invariants()
    assert cluster.all_finished()
    return owed, checked


class TestCensusReads:
    @given(
        tight_workload(),
        st.sampled_from(policy_names()),
        st.sampled_from(POOLS),
        st.booleans(),
        st.sampled_from((1, 2, 3, 16)),
        st.integers(min_value=400, max_value=900),
    )
    @settings(max_examples=120, deadline=None)
    def test_reads_equal_the_synced_reads(
        self, specs, policy, pool, epoch, quantum, capacity
    ):
        _, extensions = pool
        run_checked(policy, specs, extensions, epoch, quantum, capacity)

    def test_reads_with_owed_steps_are_checked(self):
        """The property is not vacuous: with coalescing on, reads land
        mid-epoch with owed steps for every policy; single-stepping never
        owes a step."""
        specs = [
            (rid, 8 + rid % 5, 20 + 7 * rid % 40, 10 + 3 * rid % 30,
             0.02 * rid)
            for rid in range(16)
        ]
        extensions = POOLS[0][1]
        for policy in policy_names():
            owed, checked = run_checked(
                policy, specs, extensions, True, 16, 900
            )
            assert 0 < owed < checked, policy
            owed, _ = run_checked(policy, specs, extensions, False, 16, 900)
            assert owed == 0, policy

    def test_a_step_at_exactly_now_is_not_owed(self):
        """Two instances decode in lockstep from simultaneous arrivals.
        When one's epoch ends at T, the other's step at exactly T is not
        owed yet, as for ``sync(T)``."""
        specs = [(0, 4, 20, 5, 0.0), (1, 4, 6, 5, 0.0)]
        owed, _ = run_checked("fcfs", specs, POOLS[0][1], True, 16, 900)
        assert owed > 0


def behind_by_three(state):
    """An answering request three tokens behind its pacer at t=0.35."""
    req = Request(
        rid=0, prompt_len=8, reasoning_len=0, answer_len=40, arrival_t=0.0
    )
    req.first_answer_t = 0.0
    req.answer_token_times = [0.0]
    req.generated_tokens = req.reasoning_len + 1
    req.state = state
    return req


@pytest.mark.parametrize(
    "state, owed, ok",
    [
        (ReqState.RUNNING, 3, True),
        (ReqState.RUNNING, 2, False),
        (ReqState.QUEUED, 3, False),
        (ReqState.PREEMPTED, 3, False),
    ],
)
def test_t_i_credits_owed_tokens_to_running_members_only(state, owed, ok):
    """Only the open epoch's members, the RUNNING requests, generated the
    owed tokens."""
    census = RequestSet(SLOConfig(tpot_target_s=0.1))
    census.add(behind_by_three(state))
    assert census.answering_slo_ok(0.35, owed) is ok


def syncing_predicted_footprint(policy, inst):
    """The reference ``LengthPredictivePolicy.predicted_footprint``: it
    catches the instance up and sums over the synced members."""
    return inst.total_kv_tokens() + sum(
        policy.predictor.predict_remaining(r) for r in inst.live_requests()
    )


@pytest.mark.parametrize(
    "policy", ["length-predictive", "speculative-replace"]
)
def test_predicted_footprint_decides_as_the_syncing_read(policy):
    """The owed-step credit leaves every placement where the catch-up
    put it: whole runs match."""

    def outcome():
        requests = drain_gate_session(policy).cluster.submitted
        placements = [(r.rid, r.instance_id, r.demoted) for r in requests]
        return fingerprint(requests), placements

    census = outcome()
    with mock.patch.object(
        LengthPredictivePolicy, "predicted_footprint",
        syncing_predicted_footprint,
    ):
        assert outcome() == census


@pytest.mark.parametrize("policy", ["pascal", "fcfs"])
def test_drained_session_leaves_no_deadline_entries(policy):
    """``t_i``'s heap holds finished requests only until the registry
    empties: pascal queries ``t_i``, fcfs never does."""
    session = drain_gate_session(policy)
    for inst in session.cluster.instances:
        assert len(inst.requests) == 0
        assert inst.requests._deadlines == []


def test_predicted_footprint_credits_running_members_only():
    """A request parked behind a one-slot batch generated none of the
    open epoch's owed steps: the unsynced read equals the synced one only
    if it credits the RUNNING member alone."""
    config = ClusterConfig(
        n_instances=1,
        instance=InstanceConfig(
            kv_capacity_tokens=4096,
            scheduler=SchedulerConfig(max_batch_size=1),
        ),
    )
    cluster = Cluster(config, policy="length-predictive")
    (inst,) = cluster.instances
    cluster.submit(
        [
            Request(rid=rid, prompt_len=8, reasoning_len=200, answer_len=4)
            for rid in range(2)
        ]
    )
    engine = cluster.engine
    while inst._epoch is None or len(inst._epoch.times) < 8:
        assert engine.step()
    reads = []

    def read(now):
        states = sorted(r.state.name for r in inst.requests)
        unsynced = cluster.policy.predicted_footprint(inst)
        reads.append((inst.owed_steps(now), states, unsynced))
        reads.append(syncing_predicted_footprint(cluster.policy, inst))

    engine.register(EventKind.CALLBACK, lambda now, callback: callback(now))
    engine.schedule(inst._epoch.times[5], EventKind.CALLBACK, read)
    assert engine.step()
    (owed, states, unsynced), synced = reads
    assert (owed, states) == (5, ["QUEUED", "RUNNING"])
    assert unsynced == synced


def test_departed_members_keep_the_heap_within_its_bound():
    """Without a ``t_i`` query nothing pops a departed member's entry, so
    ``discard`` rebuilds the heap from the members past its bound."""
    census = RequestSet(SLOConfig())
    members = [
        Request(rid=rid, prompt_len=8, reasoning_len=0, answer_len=4)
        for rid in range(100)
    ]
    for req in members:
        census.add(req)
    assert len(census._deadlines) == 100
    for req in members[:-1]:
        census.discard(req)
        assert len(census._deadlines) <= census.heap_bound()
