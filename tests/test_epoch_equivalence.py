"""Decode epochs against single-stepping, and the fast paths' gates.

``tests/test_equivalence.py`` holds the equivalence of every fast path
with its reference over random workloads (decode epochs against
single-stepping among them), checked after every event.  Here the epoch
pair also runs unchecked, through the batch and the live entry points,
and deterministic regressions pin the off-by-one-prone epoch boundaries
(quantum expiry, phase flip, block crossings) against single-stepping.
The counter gates pin, for one small saturated session per policy, how
many tokens take the per-token path, how many reforms skip the residency
walk, how many ``t_i`` reads a decision makes, how often instances are
caught up and how many runs hold the answer timing: the one thing each
equivalence cannot show.
"""

import contextlib
from array import array
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import policy_names
from repro.metrics.collector import collect
from repro.serving.instance import ServingInstance
from repro.serving.monitor import InstanceMonitor
from repro.workload.request import Request
from tests.equivalence import (
    POOL_SHAPES,
    HookRecorder,
    assert_agree,
    build_cluster,
    build_requests,
    build_session,
    cluster_knobs,
    counters,
    counting_reforms,
    fingerprint,
    gate_session,
    payload,
    workloads,
)


class TestEpochEquivalence:
    """Epochs and single-stepping with no per-event check.

    ``test_modes_agree[epoch]`` checks the epoch run after every event,
    and each check catches every instance up.  These runs go unchecked,
    as a figure run does, so an open epoch owes steps across several
    events until a mutation syncs it.
    """

    @given(
        workloads(),
        st.sampled_from(policy_names()),
        st.sampled_from(sorted(POOL_SHAPES)),
        cluster_knobs(),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_run_bit_identical(self, specs, policy, shape, knobs):
        """A batch ``Cluster.run_trace``, the figures' entry point."""

        def batch(epoch):
            cluster = build_cluster(
                policy, shape, **{**knobs, "epoch_coalescing": epoch}
            )
            cluster.enable_token_log()
            cluster.run_trace(build_requests(specs))
            assert cluster.all_finished()
            cluster.check_invariants()
            return (
                payload(collect(cluster)),
                counters(cluster),
                cluster.token_log,
            )

        assert batch(True) == batch(False)

    @given(
        workloads(),
        st.sampled_from(policy_names()),
        st.sampled_from(sorted(POOL_SHAPES)),
    )
    @settings(max_examples=15, deadline=None)
    def test_lifecycle_hooks_fire_identically(self, specs, policy, shape):
        """A live session fed by ``submit`` and drained: the lifecycle
        stream, and everything else the run shows, match."""

        def live(epoch):
            session = build_session(policy, shape, epoch_coalescing=epoch)
            hooks = session.subscribe(HookRecorder())
            session.cluster.enable_token_log()
            for req in build_requests(specs):
                session.submit(req)
            session.drain()
            return fingerprint(session, hooks)

        assert live(True) == live(False)


class TestEpochBoundaries:
    """Deterministic off-by-one regressions at the epoch-horizon edges."""

    def test_quantum_expiry_exact_boundary(self):
        # Decode lengths that are exact multiples of the quantum: the
        # epoch must end *on* the expiry step, not one past it.
        quantum = 8
        specs = [
            (0, 10, 2 * quantum, quantum, 0.0),
            (1, 10, quantum, 2 * quantum, 0.0),
            (2, 10, 0, 3 * quantum, 0.1),
        ]
        assert_agree("epoch", "pascal", "homogeneous", specs, quantum=quantum)

    def test_phase_flip_exact_boundary(self):
        # reasoning_len == 1 flips phase on the very first decode token;
        # the flip must land on an epoch-final step so migration and
        # re-banding see it at the true event time.
        specs = [
            (0, 10, 1, 5, 0.0),
            (1, 10, 2, 5, 0.0),
            (2, 10, 1, 1, 0.05),
        ]
        assert_agree("epoch", "pascal", "homogeneous", specs)

    def test_single_token_requests(self):
        # Horizon floor: a one-token answer is a one-step epoch.
        specs = [(0, 4, 0, 1, 0.0), (1, 4, 0, 1, 0.0), (2, 4, 1, 1, 0.0)]
        assert_agree("epoch", "pascal", "homogeneous", specs)

    def test_block_crossing_pressure(self):
        # A tight pool forces the block-boundary cap to bound horizons.
        specs = [(rid, 30, 40, 40, 0.01 * rid) for rid in range(8)]
        for policy in ("fcfs", "pascal"):
            assert_agree(
                "epoch", policy, "homogeneous", specs,
                instances=1, kv_capacity=700,
            )


#: policy -> (tokens through ``Request.record_token``, tokens generated)
#: in :func:`tests.equivalence.gate_session` (saturated short chat on two
#: 6000-token instances with a 32-token quantum).  Only the prefill
#: tokens and the milestone tokens take the per-token path: 4 per
#: request, plus each quantum expiry.
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


class TestMilestoneEmission:
    """The counter gates, each over every policy's gate session."""

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
                session = gate_session(policy)
            tokens = sum(
                inst.tokens_generated for inst in session.cluster.instances
            )
            counted[policy] = (calls, tokens)
        assert counted == PER_TOKEN_GATE

    def test_steady_reform_gate(self):
        """The steady and admission paths switched off change no result,
        only this split (``tests/test_equivalence.py`` holds the
        equivalence)."""
        assert set(STEADY_GATE) <= set(policy_names())
        counted = {}
        for policy in STEADY_GATE:
            with counting_reforms() as counts:
                session = gate_session(policy)
            reforms = sum(inst.reforms for inst in session.cluster.instances)
            split = (counts["steady"], counts["admission"], counts["walked"])
            assert sum(split) == reforms
            counted[policy] = split
        assert counted == STEADY_GATE

    def test_census_gate(self):
        """Placement and phase routing read ``t_i`` in load order, up to
        the first clean instance (``tests/test_equivalence.py`` holds the
        equivalence with the eager filter)."""
        assert set(CENSUS_GATE) <= set(policy_names())
        counted = {}
        for policy in CENSUS_GATE:
            with counting_census() as counts:
                gate_session(policy)
            counted[policy] = counts["t_i"]
        assert counted == CENSUS_GATE

    def test_run_gate(self):
        """Answer timing is kept as runs into shared step logs, not as
        per-token lists (``tests/test_equivalence.py`` holds the
        equivalence with the token log)."""
        assert set(RUN_GATE) <= set(policy_names())
        counted = {
            policy: run_census(gate_session(policy))
            for policy in RUN_GATE
        }
        assert counted == RUN_GATE

    def test_catch_up_gate(self):
        """Census reads write nothing: only mutations and snapshots catch
        an instance up (``tests/test_equivalence.py`` holds the
        equivalence)."""
        assert set(SYNC_GATE) <= set(policy_names())
        counted = {}
        for policy in SYNC_GATE:
            with counting_catch_ups() as counts:
                gate_session(policy)
            counted[policy] = (counts["sync"], counts["bulk"])
        assert counted == SYNC_GATE
