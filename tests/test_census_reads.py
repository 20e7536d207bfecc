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

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SLOConfig
from repro.core.extensions import LengthPredictivePolicy
from repro.core.registry import policy_names
from repro.serving.instance import RequestSet
from repro.sim.events import EventKind
from repro.workload.request import ReqState, Request
from tests.equivalence import (
    POOL_SHAPES,
    build_cluster,
    build_requests,
    census_reads_exact,
    cluster_knobs,
    drive,
    gate_session,
    payload,
    workloads,
)


def owed_reads(policy, specs, epoch):
    """Drain one run on three 900-token instances, checking the reads
    on every instance after every event (:func:`census_reads_exact`);
    returns ``(reads with owed steps, reads)``."""
    cluster = build_cluster(
        policy, instances=3, kv_capacity=900, epoch_coalescing=epoch
    )
    cluster.submit(build_requests(specs))
    owed = []

    def check(cluster):
        now = cluster.engine.now
        owed.extend(inst.owed_steps(now) > 0 for inst in cluster.instances)
        census_reads_exact(cluster)
        cluster.check_invariants()

    drive(cluster, check)
    return sum(owed), len(owed)


class TestCensusReads:
    @given(
        workloads(),
        st.sampled_from(policy_names()),
        st.sampled_from(sorted(POOL_SHAPES)),
        cluster_knobs(),
        st.sampled_from((1, 3, 10)),
    )
    @settings(max_examples=120, deadline=None)
    def test_reads_equal_the_synced_reads(
        self, specs, policy, shape, knobs, stride
    ):
        """:func:`census_reads_exact` and :meth:`Cluster.check_invariants`
        after every ``stride``-th event.  Each check syncs every
        instance, so with a stride above 1 an open epoch owes steps
        across several events by the next check, as in an unchecked run;
        ``test_modes_agree`` checks after every event."""
        cluster = build_cluster(policy, shape, **knobs)
        cluster.submit(build_requests(specs))
        events = itertools.count(1)

        def check(cluster):
            if next(events) % stride == 0:
                census_reads_exact(cluster)
                cluster.check_invariants()

        drive(cluster, check)

    def test_reads_with_owed_steps_are_checked(self):
        """The property (``tests/test_equivalence.py`` checks it after
        every event) is not vacuous: with coalescing on, reads land
        mid-epoch with owed steps for every policy; single-stepping never
        owes a step."""
        specs = [
            (rid, 8 + rid % 5, 20 + 7 * rid % 40, 10 + 3 * rid % 30,
             0.02 * rid)
            for rid in range(16)
        ]
        for policy in policy_names():
            owed, checked = owed_reads(policy, specs, True)
            assert 0 < owed < checked, policy
            owed, _ = owed_reads(policy, specs, False)
            assert owed == 0, policy

    def test_a_step_at_exactly_now_is_not_owed(self):
        """Two instances decode in lockstep from simultaneous arrivals.
        When one's epoch ends at T, the other's step at exactly T is not
        owed yet, as for ``sync(T)``."""
        specs = [(0, 4, 20, 5, 0.0), (1, 4, 6, 5, 0.0)]
        owed, _ = owed_reads("fcfs", specs, True)
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
        return payload(gate_session(policy).metrics())

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
    session = gate_session(policy)
    for inst in session.cluster.instances:
        assert len(inst.requests) == 0
        assert inst.requests._deadlines == []


def test_predicted_footprint_credits_running_members_only():
    """A request parked behind a one-slot batch generated none of the
    open epoch's owed steps: the unsynced read equals the synced one only
    if it credits the RUNNING member alone."""
    cluster = build_cluster(
        "length-predictive", instances=1, kv_capacity=4096, quantum=500,
        batch_limit=1,
    )
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
