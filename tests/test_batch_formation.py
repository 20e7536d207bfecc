"""Direct unit tests of the shared batch-formation mechanism.

The behavioral suites exercise ``form_batch`` through full simulations;
these tests pin down the StepPlan contract itself: prefix semantics,
prefill priority, residency changes and the batch/memory limits.
"""

import pytest

from repro.core.pascal import PascalScheduler
from repro.schedulers.base import StepKind, StepPlan
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.workload.request import ReqState, Request
from tests.conftest import build_instance


def request(rid, prompt=8, reasoning=4, answer=4, arrival=0.0):
    return Request(
        rid=rid,
        prompt_len=prompt,
        reasoning_len=reasoning,
        answer_len=answer,
        arrival_t=arrival,
    )


def admitted(inst, req, now=0.0):
    """Register a request with the scheduler without starting steps."""
    req.instance_id = inst.iid
    inst.requests.add(req)
    inst.scheduler.on_admit(req, now)
    return req


class TestStepPlan:
    def test_batch_size(self):
        plan = StepPlan(StepKind.DECODE, [object(), object()])
        assert plan.batch_size == 2

    def test_idle_plan_empty(self):
        assert StepPlan(StepKind.IDLE).requests == []


class TestPrefillPriority:
    def test_new_requests_prefill_before_decode(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=640)
        resident = admitted(inst, request(0))
        inst.do_allocate(resident, 0.0)
        resident.prefill_done = True
        newcomer = admitted(inst, request(1, arrival=1.0))
        plan = inst.scheduler.form_batch(inst, 1.0)
        assert plan.kind == StepKind.PREFILL
        assert plan.requests == [newcomer]
        assert plan.prefill_tokens == newcomer.prompt_len

    def test_decode_when_everyone_prefilled(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=640)
        for rid in range(3):
            req = admitted(inst, request(rid))
            inst.do_allocate(req, 0.0)
            req.prefill_done = True
        plan = inst.scheduler.form_batch(inst, 0.0)
        assert plan.kind == StepKind.DECODE
        assert plan.batch_size == 3

    def test_prefill_budget_limits_wave(self):
        from repro.config import InstanceConfig, SchedulerConfig

        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=100_000)
        inst.config = InstanceConfig(
            kv_capacity_tokens=100_000,
            scheduler=SchedulerConfig(max_prefill_tokens=100),
        )
        first = admitted(inst, request(0, prompt=80))
        second = admitted(inst, request(1, prompt=80, arrival=0.1))
        plan = inst.scheduler.form_batch(inst, 0.2)
        assert plan.kind == StepKind.PREFILL
        assert plan.requests == [first]


class TestPrefixSemantics:
    def test_admission_allocates_in_priority_order(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=48)
        early = admitted(inst, request(0, prompt=17))
        late = admitted(inst, request(1, prompt=17, arrival=1.0))
        plan = inst.scheduler.form_batch(inst, 1.0)
        # Three blocks: early takes 2 (17+1 tokens), late's 2 don't fit.
        assert early in plan.requests
        assert late not in plan.requests
        assert inst.pool.holds(early)
        assert not inst.pool.holds(late)

    def test_no_leapfrog_past_blocked_head(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        resident = admitted(inst, request(0, prompt=30))
        inst.do_allocate(resident, 0.0)
        resident.prefill_done = True
        big = admitted(inst, request(1, prompt=33, arrival=1.0))
        small = admitted(inst, request(2, prompt=1, arrival=2.0))
        plan = inst.scheduler.form_batch(inst, 2.0)
        # big (3 blocks) doesn't fit behind resident (2 blocks of 4);
        # small must not jump the queue even though it would fit.
        assert not inst.pool.holds(big)
        assert not inst.pool.holds(small)
        assert plan.requests == [resident]

    def test_eviction_of_prefix_overflow(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        first = admitted(inst, request(0, prompt=30))
        inst.do_allocate(first, 0.0)
        first.prefill_done = True
        second = admitted(inst, request(1, prompt=16, arrival=1.0))
        inst.do_allocate(second, 1.0)
        second.prefill_done = True
        second.set_state(ReqState.RUNNING, 1.0)
        # Grow first to 33 tokens (3 blocks): 3 + second's 2-block need
        # no longer fit in the 4-block pool.
        inst.pool.grow(first, 3)
        plan = inst.scheduler.form_batch(inst, 2.0)
        assert plan.requests == [first]
        assert second.state == ReqState.PREEMPTED
        assert not second.on_gpu

    def test_swap_in_on_reform_when_room_frees(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        victim = admitted(inst, request(0, prompt=30))
        inst.do_allocate(victim, 0.0)
        victim.prefill_done = True
        inst.do_swap_out(victim, 1.0)
        plan = inst.scheduler.form_batch(inst, 2.0)
        assert victim in plan.requests
        assert victim.on_gpu


class TestExternalPins:
    def test_migrating_kv_is_off_limits(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        # KV pinned mid-migration: admitted, allocated, then departed.
        ghost = admitted(inst, request(9, prompt=33))
        inst.do_allocate(ghost, 0.0)
        inst.depart(ghost, 0.5)
        waiting = admitted(inst, request(1, prompt=30, arrival=1.0))
        plan = inst.scheduler.form_batch(inst, 1.0)
        # Only 1 block remains after the ghost's 3; waiting needs 2.
        assert waiting not in plan.requests
        assert not inst.pool.holds(waiting)

    def test_finished_requests_ignored(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=640)
        done = request(0)
        done.state = ReqState.FINISHED
        inst.requests.add(done)
        live = admitted(inst, request(1, arrival=1.0))
        plan = inst.scheduler.form_batch(inst, 1.0)
        assert done not in plan.requests
        assert live in plan.requests


# ---------------------------------------------------------------------------
# run-queue: every re-key and exit site keeps the walk in sorted order
# ---------------------------------------------------------------------------
def by_key(inst):
    """The order the run-queue replaced: every live request, sorted."""
    return sorted(inst.live_requests(), key=inst.scheduler.priority_key)


def queued(inst):
    return [req for _, req in inst.scheduler.run_queue]


def held_instance(scheduler, capacity_tokens=640):
    """An instance whose step loop is held, so only the test reforms."""
    engine, inst = build_instance(scheduler, capacity_tokens=capacity_tokens)
    inst.busy = True
    return engine, inst


def allocated(inst, req, now=0.0):
    """Admit ``req``, give it GPU memory and mark its prompt prefilled."""
    inst.admit(req, now)
    inst.do_allocate(req, now)
    req.prefill_done = True
    return req


class TestRunQueueRekeys:
    def test_fcfs_migrant_with_older_arrival_lands_mid_queue(self):
        engine, inst = held_instance(FCFSScheduler())
        early = allocated(inst, request(0, arrival=0.0))
        late = allocated(inst, request(2, arrival=2.0))
        migrant = request(1, arrival=1.0)
        migrant.prefill_done = True
        inst.accept_migrated(migrant, 3.0)
        plan = inst.scheduler.form_batch(inst, 3.0)
        assert plan.requests == [early, migrant, late] == by_key(inst)
        inst.check_invariants()

    def test_fcfs_deferred_rearrival_lands_mid_queue(self):
        engine, inst = held_instance(FCFSScheduler())
        early = allocated(inst, request(0, arrival=0.0), now=0.0)
        late = allocated(inst, request(2, arrival=2.0), now=2.0)
        # Arrived at 1.0, parked in the deferral room, admitted at 3.0.
        rearrival = request(1, arrival=1.0)
        inst.admit(rearrival, 3.0)
        plan = inst.scheduler.form_batch(inst, 3.0)
        assert plan.kind == StepKind.PREFILL
        assert queued(inst) == [early, rearrival, late] == by_key(inst)
        inst.check_invariants()

    def test_quantum_expiry_goes_to_the_tail_of_its_tier(self):
        engine, inst = held_instance(RoundRobinScheduler(quantum_tokens=4))
        a, b, c = (allocated(inst, request(rid)) for rid in range(3))
        inst.scheduler.on_quantum_expired(a, 1.0)
        inst.scheduler.on_quantum_expired(c, 2.0)
        plan = inst.scheduler.form_batch(inst, 2.0)
        # Fresh b first, then the veterans in requeue order.
        assert plan.requests == [b, a, c] == by_key(inst)
        inst.check_invariants()

    def test_pascal_local_flip_goes_to_the_tail_of_the_answering_band(self):
        engine, inst = build_instance(
            PascalScheduler(quantum_tokens=100), capacity_tokens=640
        )
        inst.on_transition = (
            lambda req, src, now: src.scheduler.on_phase_transition_local(
                req, now
            )
        )
        answering = request(0, reasoning=0, answer=40)
        flipping = request(1, reasoning=2, answer=40)
        reasoning = request(2, reasoning=30, answer=4)
        for req in (answering, flipping, reasoning):
            inst.admit(req, 0.0)
        while flipping.reasoning_end_t is None:
            engine.step()
        assert inst.plan.requests == [reasoning, answering, flipping]
        assert inst.plan.requests == by_key(inst)
        inst.check_invariants()

    def test_unhooked_flip_changes_band_in_place(self):
        # A standalone instance has no transition hook: the flip alone
        # moves PASCAL's band (the instance re-queues at the flip).
        engine, inst = build_instance(
            PascalScheduler(quantum_tokens=100), capacity_tokens=640
        )
        flipping = request(0, reasoning=2, answer=40)
        answering = request(1, reasoning=0, answer=40)
        reasoning = request(2, reasoning=30, answer=4)
        for req in (flipping, answering, reasoning):
            inst.admit(req, 0.0)
        while flipping.reasoning_end_t is None:
            engine.step()
        # Same enqueue_seq as at admission, so it leads the answering band.
        assert inst.plan.requests == [reasoning, flipping, answering]
        assert inst.plan.requests == by_key(inst)
        inst.check_invariants()

    def test_co_due_demotions_take_enqueue_seq_in_admission_order(self):
        engine, inst = build_instance(
            PascalScheduler(quantum_tokens=100, demotion_threshold_tokens=5),
            capacity_tokens=640,
        )
        first = request(0, reasoning=50, answer=4)
        second = request(1, reasoning=50, answer=4)
        short = request(2, reasoning=8, answer=4)
        inst.busy = True
        for req in (first, second, short):
            inst.admit(req, 0.0)
        # A spent quantum puts `first` behind `second` in plan order.
        inst.scheduler.on_quantum_expired(first, 0.0)
        inst.busy = False
        inst.maybe_start_step(0.0)
        assert inst.plan.requests == [second, short, first]
        # Both long requests pass the threshold in the epoch that ends
        # with `short`'s flip; the reform demotes them together.
        while short.reasoning_end_t is None:
            engine.step()
        assert first.demoted and second.demoted
        assert first.enqueue_seq < second.enqueue_seq
        assert inst.plan.requests == [short, first, second] == by_key(inst)
        inst.check_invariants()

    def test_speculative_demote_rekeys_the_victim(self):
        from repro.api import ListSource, ServingSession
        from repro.config import (
            ClusterConfig,
            ExtensionPolicyConfig,
            InstanceConfig,
            SchedulerConfig,
        )
        from repro.perfmodel.unit import UnitPerfModel

        config = ClusterConfig(
            n_instances=1,
            instance=InstanceConfig(
                kv_capacity_tokens=2400,
                scheduler=SchedulerConfig(
                    token_quantum=16, demotion_threshold_tokens=10**9
                ),
            ),
            # Every target pressured, everything predicted long: the
            # second arrival demotes the in-flight first request.
            extensions=ExtensionPolicyConfig(
                speculative_max_defers=0,
                speculative_preempt=True,
                speculative_pressure_tokens=0,
                speculative_long_tokens=0,
            ),
        )
        session = ServingSession(
            policy="speculative-replace",
            config=config,
            perf=UnitPerfModel(0.05),
        )
        victim = Request(rid=5, prompt_len=4, reasoning_len=60,
                         answer_len=8, arrival_t=0.0, dataset="d")
        newcomer = Request(rid=3, prompt_len=4, reasoning_len=60,
                           answer_len=8, arrival_t=0.2, dataset="d")
        session.attach(ListSource([victim, newcomer]))
        session.step(until=0.3)
        inst = session.cluster.instances[0]
        assert victim.demoted and not newcomer.demoted
        assert inst.plan.requests == [newcomer, victim] == by_key(inst)
        inst.check_invariants()


class TestRunQueueExits:
    def three_resident(self):
        engine, inst = held_instance(FCFSScheduler())
        reqs = [allocated(inst, request(rid, arrival=rid)) for rid in range(3)]
        return engine, inst, reqs

    def test_cancel_drops_the_entry(self):
        engine, inst, (a, b, c) = self.three_resident()
        inst.cancel_request(b, 1.0)
        plan = inst.scheduler.form_batch(inst, 1.0)
        assert queued(inst) == plan.requests == [a, c] == by_key(inst)
        inst.check_invariants()

    def test_depart_drops_the_entry(self):
        engine, inst, (a, b, c) = self.three_resident()
        inst.depart(a, 1.0)
        plan = inst.scheduler.form_batch(inst, 1.0)
        assert queued(inst) == plan.requests == [b, c] == by_key(inst)
        # Its KV stays pinned until the copy lands.
        assert inst.pinned_blocks == inst.pool.blocks_for(a.kv_tokens)
        inst.check_invariants()
        inst.release_departed(a)
        assert inst.pinned_blocks == 0
        inst.check_invariants()

    def test_completion_drops_the_entry(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=640)
        done = request(0, reasoning=1, answer=1)
        a = request(1, reasoning=10, answer=10)
        b = request(2, reasoning=10, answer=10)
        for req in (done, a, b):
            inst.admit(req, 0.0)
        while not done.finished:
            engine.step()
        assert done not in queued(inst)
        assert queued(inst) == inst.plan.requests == [a, b] == by_key(inst)
        inst.check_invariants()
