"""Negative-path invariant tests: corrupted counters must be *caught*.

The property suite (``test_invariants.py``) proves correct runs keep the
O(1) running counters consistent with the authoritative registries.
This file proves the converse: ``check_invariants()`` actually detects
each class of drift it claims to — every counter/registry pair, both
capacity ceilings, and the per-instance pending-KV ledger — with the
specific message an operator would need to localize the bug.  Without
these, a silently-vacuous checker would pass every property test.
"""

from __future__ import annotations

import math
from array import array

import pytest

from repro.core.pascal import PascalScheduler
from repro.memory.blocks import KVPool
from repro.schedulers.fcfs import FCFSScheduler
from repro.workload.request import ReqState, Request
from tests.conftest import build_instance


def make_pool(**kw) -> KVPool:
    defaults = dict(
        gpu_capacity_tokens=256, cpu_capacity_tokens=256, block_size=16
    )
    defaults.update(kw)
    return KVPool(**defaults)


def make_request(rid=0, arrival=0.0):
    return Request(
        rid=rid, prompt_len=8, reasoning_len=4, answer_len=4,
        arrival_t=arrival,
    )


class TestKVPoolCorruption:
    def test_clean_pool_passes(self):
        pool = make_pool()
        pool.allocate(make_request(), 32)
        pool.check_invariants()

    def test_gpu_token_counter_drift(self):
        pool = make_pool()
        pool.allocate(make_request(), 32)
        pool._gpu_tokens += 1
        with pytest.raises(
            AssertionError,
            match=r"GPU token-counter drift: registry=32 counter=33",
        ):
            pool.check_invariants()

    def test_cpu_token_counter_drift(self):
        pool = make_pool()
        req = make_request()
        pool.allocate(req, 32)
        pool.swap_out(req)
        pool._cpu_tokens -= 2
        with pytest.raises(
            AssertionError,
            match=r"CPU token-counter drift: registry=32 counter=30",
        ):
            pool.check_invariants()

    def test_gpu_block_leak(self):
        pool = make_pool()
        pool.allocate(make_request(), 32)
        pool.gpu_used_blocks += 1
        with pytest.raises(
            AssertionError, match=r"GPU block leak: registry=2 counter=3"
        ):
            pool.check_invariants()

    def test_cpu_block_leak(self):
        pool = make_pool()
        req = make_request()
        pool.allocate(req, 32)
        pool.swap_out(req)
        pool.cpu_used_blocks -= 1
        with pytest.raises(
            AssertionError, match=r"CPU block leak: registry=2 counter=1"
        ):
            pool.check_invariants()

    def test_member_kv_tokens_changed_outside_the_pool(self):
        # The members' own fields are the residency record, so a
        # ``kv_tokens`` written behind the pool's back is drift.
        pool = make_pool()
        req = make_request()
        pool.allocate(req, 32)
        req.kv_tokens = 40
        with pytest.raises(
            AssertionError,
            match=r"GPU token-counter drift: registry=40 counter=32",
        ):
            pool.check_invariants()

    def test_gpu_over_capacity(self):
        pool = make_pool(gpu_capacity_tokens=64)
        pool.allocate(make_request(), 64)
        # A consistent-but-impossible state: shrink the declared
        # capacity under a registry-backed allocation, so the counter
        # cross-checks pass and only the ceiling check can fire.
        pool.gpu_capacity_blocks = pool.gpu_used_blocks - 1
        with pytest.raises(AssertionError, match=r"GPU pool over capacity"):
            pool.check_invariants()

    def test_cpu_over_capacity(self):
        pool = make_pool(cpu_capacity_tokens=64)
        req = make_request()
        pool.allocate(req, 64)
        pool.swap_out(req)
        pool.cpu_capacity_blocks = pool.cpu_used_blocks - 1
        with pytest.raises(AssertionError, match=r"CPU pool over capacity"):
            pool.check_invariants()


class TestInstancePendingKVCorruption:
    def test_pending_kv_drift_names_the_instance(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=256)
        inst.check_invariants()
        inst._pending_kv += 7
        with pytest.raises(
            AssertionError,
            match=r"instance 0 pending-KV drift: registry=0 counter=7",
        ):
            inst.check_invariants()

    def test_admitted_request_is_pending_until_prefilled(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=256)
        req = make_request()
        inst.admit(req, 0.0)
        # Admitted but not yet allocated in the pool: counted as pending.
        inst.check_invariants()
        inst._pending_kv -= req.full_kv_tokens
        with pytest.raises(AssertionError, match=r"pending-KV drift"):
            inst.check_invariants()


class TestInstancePhaseCensusCorruption:
    def test_reasoning_count_drift_names_the_instance(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=256)
        inst.busy = True  # hold the step loop: census only
        inst.admit(make_request(), 0.0)
        inst.check_invariants()
        inst.requests.reasoning += 1
        with pytest.raises(
            AssertionError,
            match=r"instance 0 reasoning-count drift: registry=1 counter=2",
        ):
            inst.check_invariants()

    def test_dropped_deadline_entry_hides_a_starving_request(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=256)
        inst.busy = True
        late = Request(rid=0, prompt_len=8, reasoning_len=0, answer_len=4)
        late.mark_reasoning_precomputed(-1.0)  # reasoning ended 1 s ago
        inst.admit(late, 0.0)
        inst.check_invariants()  # starving, and both sides say so
        inst.requests._deadlines.clear()
        with pytest.raises(
            AssertionError,
            match=r"instance 0 t_i drift at t=0.0: registry=False census=True",
        ):
            inst.check_invariants()


class TestRunQueueCorruption:
    """The run-queue and the pinned-block counter replace a sort and a
    re-sum on every reform; ``check_invariants()`` re-derives both."""

    def three_queued(self, scheduler=None):
        engine, inst = build_instance(
            scheduler or FCFSScheduler(), capacity_tokens=256
        )
        inst.busy = True  # hold the step loop
        for rid in range(3):
            inst.admit(make_request(rid, arrival=float(rid)), float(rid))
        inst.check_invariants()
        return inst

    def test_swapped_entries(self):
        inst = self.three_queued()
        queue = inst.scheduler.run_queue
        queue[0], queue[1] = queue[1], queue[0]
        with pytest.raises(
            AssertionError,
            match=r"instance 0 run-queue drift: "
            r"registry=\[0, 1, 2\] queue=\[1, 0, 2\]",
        ):
            inst.check_invariants()

    def test_dropped_entry(self):
        inst = self.three_queued()
        del inst.scheduler.run_queue[2]
        with pytest.raises(
            AssertionError,
            match=r"run-queue drift: registry=\[0, 1, 2\] queue=\[0, 1\]",
        ):
            inst.check_invariants()

    def test_stale_key(self):
        # Order intact, but the key a request was queued under no longer
        # matches its priority: the next insertion would land wrong.
        inst = self.three_queued(PascalScheduler())
        _, tail = inst.scheduler.run_queue[-1]
        tail.demoted = True  # band moved without a re-queue
        assert [r for _, r in inst.scheduler.run_queue] == sorted(
            inst.live_requests(), key=inst.scheduler.priority_key
        )
        with pytest.raises(AssertionError, match=r"run-queue drift"):
            inst.check_invariants()

    @pytest.mark.parametrize("fault", ["dropped", "extra"])
    def test_lookup_out_of_step(self, fault):
        # The rid lookup locates an entry for removal: it must map exactly
        # the queued requests to their entries.
        inst = self.three_queued()
        lookup = inst.scheduler._queued
        if fault == "dropped":
            del lookup[1]
        else:
            lookup[99] = inst.scheduler.run_queue[0]
        with pytest.raises(AssertionError, match=r"run-queue drift"):
            inst.check_invariants()

    def test_pinned_block_counter_drift(self):
        inst = self.three_queued()
        inst.pinned_blocks += 1
        with pytest.raises(
            AssertionError,
            match=r"instance 0 pinned-block drift: registry=0 counter=1",
        ):
            inst.check_invariants()

    def test_due_demotion_outside_the_plan(self):
        # Only the current plan's members are tested for demotion at the
        # next reform: a due request anywhere else would never demote.
        inst = self.three_queued(PascalScheduler(demotion_threshold_tokens=2))
        _, outside = inst.scheduler.run_queue[1]
        inst.do_allocate(outside, 1.0)
        outside.generated_tokens = 3  # as if it had decoded, unplanned
        with pytest.raises(
            AssertionError,
            match=r"instance 0 demotion-scan drift: requests \[1\]",
        ):
            inst.check_invariants()


class TestSteadyStateCorruption:
    """Steady state lets a reform skip the residency walk, so it must
    never stand while a live request other than a newcomer is off the
    GPU or unprefilled."""

    def settled(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=256)
        inst.busy = True  # hold the step loop
        requests = []
        for rid in range(2):
            req = make_request(rid, arrival=float(rid))
            inst.admit(req, float(rid))
            inst.do_allocate(req, float(rid))
            req.prefill_done = True
            requests.append(req)
        inst.scheduler.form_batch(inst, 2.0)
        assert inst.steady
        inst.check_invariants()
        return inst, requests

    def test_request_swapped_out_behind_the_walk(self):
        inst, (_, second) = self.settled()
        inst.pool.swap_out(second)  # not through the walk
        with pytest.raises(
            AssertionError,
            match=r"instance 0 steady-state drift: requests \[1\] are off "
            r"the GPU or not prefill-done",
        ):
            inst.check_invariants()

    def test_unprefilled_request(self):
        inst, (first, _) = self.settled()
        first.prefill_done = False
        with pytest.raises(
            AssertionError,
            match=r"instance 0 steady-state drift: requests \[0\]",
        ):
            inst.check_invariants()


class TestNewcomerCorruption:
    """An admission plan skips the walk on the word of the newcomers
    record, so every newcomer must be live, unprefilled and unallocated
    unless the in-flight prefill holds it, and steady state must exempt
    exactly the newcomers."""

    def admitted(self):
        """A steady instance holding two settled requests and a newcomer."""
        inst, _ = TestSteadyStateCorruption().settled()
        arrival = make_request(5, arrival=2.0)
        inst.admit(arrival, 2.0)
        assert inst.steady and list(inst.newcomers) == [arrival]
        inst.check_invariants()
        return inst, arrival

    def test_newcomer_allocated_outside_a_prefill(self):
        inst, arrival = self.admitted()
        inst.do_allocate(arrival, 2.0)  # not through a reform
        with pytest.raises(
            AssertionError,
            match=r"instance 0 newcomer drift: requests \[5\] are not live, "
            r"prefill-done, or allocated outside the in-flight prefill",
        ):
            inst.check_invariants()

    def test_prefill_done_newcomer(self):
        inst, arrival = self.admitted()
        arrival.prefill_done = True
        with pytest.raises(
            AssertionError, match=r"instance 0 newcomer drift: requests \[5\]"
        ):
            inst.check_invariants()

    def test_newcomer_that_left_the_registry(self):
        inst, arrival = self.admitted()
        inst.requests.discard(arrival)  # not through cancel or depart
        inst.scheduler.dequeue(arrival)
        inst._pending_kv -= arrival.full_kv_tokens
        with pytest.raises(
            AssertionError, match=r"instance 0 newcomer drift: requests \[5\]"
        ):
            inst.check_invariants()

    def test_unrecorded_newcomer_breaks_steady_state(self):
        inst, arrival = self.admitted()
        inst.newcomers.clear()
        with pytest.raises(
            AssertionError,
            match=r"instance 0 steady-state drift: requests \[5\]",
        ):
            inst.check_invariants()


class TestRegistryCorruption:
    def test_finished_request_left_in_the_registry(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=256)
        inst.busy = True
        done = make_request(3)
        inst.admit(done, 0.0)
        inst.check_invariants()
        done.state = ReqState.FINISHED  # not through its final token
        with pytest.raises(
            AssertionError,
            match=r"instance 0 registry drift: finished requests \[3\] are "
            r"still registered",
        ):
            inst.check_invariants()


class TestPlanMembershipCorruption:
    """The census reads credit every RUNNING request with the open decode
    epoch's unapplied steps, so while an epoch is open the RUNNING
    requests must be exactly its plan's members."""

    def decoding(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=256)
        requests = [
            Request(rid=rid, prompt_len=8, reasoning_len=40, answer_len=8,
                    arrival_t=0.0)
            for rid in range(3)
        ]
        for req in requests:
            inst.admit(req, 0.0)
        while inst._epoch is None:  # prefills, then the first decode epoch
            assert engine.step()
        assert len(inst._epoch.times) > 1
        inst.check_invariants()
        return inst, requests

    def test_member_parked_behind_the_epoch(self):
        inst, (_, second, _) = self.decoding()
        second.set_state(ReqState.QUEUED, 0.0)
        with pytest.raises(
            AssertionError,
            match=r"instance 0 plan-membership drift: RUNNING requests "
            r"\[0, 2\] are not the open epoch's members \[0, 1, 2\]",
        ):
            inst.check_invariants()

    def test_running_request_outside_the_plan(self):
        inst, _ = self.decoding()
        inst._epoch.plan.requests.pop()
        with pytest.raises(
            AssertionError,
            match=r"instance 0 plan-membership drift: RUNNING requests "
            r"\[0, 1, 2\] are not the open epoch's members \[0, 1\]",
        ):
            inst.check_invariants()


class TestEpochEventCorruption:
    """An open decode epoch's final step is emitted only by its own
    ``STEP_COMPLETE`` event, so that event must be live and due at
    exactly the final step's time: then a drained engine leaves no epoch
    open, and nothing catches instances up after a drain."""

    decoding = TestPlanMembershipCorruption.decoding

    def test_cancelled_epoch_event(self):
        inst, _ = self.decoding()
        inst._epoch.event.cancelled = True
        with pytest.raises(
            AssertionError,
            match=r"instance 0 epoch-event drift: the open epoch's "
            r"STEP_COMPLETE \(t=\S+, cancelled=True\) is not live at its "
            r"final step",
        ):
            inst.check_invariants()

    def test_epoch_cut_behind_its_event(self):
        inst, _ = self.decoding()
        # A truncation that forgot to reschedule: the event now fires
        # after the epoch's last step.
        del inst._epoch.times[-1]
        with pytest.raises(
            AssertionError,
            match=r"instance 0 epoch-event drift: .* cancelled=False\) is "
            r"not live at its final step",
        ):
            inst.check_invariants()


class TestAnswerTimingCorruption:
    """Answer timing is runs into the instance's step log: a run's length
    must be the answering-token count, and while an epoch is open every
    RUNNING answering member's run must end at the epoch's next logged
    step, or the next open would continue it in the wrong place."""

    def answering(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=256)
        requests = [
            Request(rid=rid, prompt_len=8, reasoning_len=1, answer_len=40,
                    arrival_t=0.0)
            for rid in range(3)
        ]
        for req in requests:
            inst.admit(req, 0.0)
        # Prefill, the first answering token, then a long epoch.
        while inst._epoch is None or len(inst._epoch.times) == 1:
            assert engine.step()
        inst.sync(inst._epoch.times[1])  # one step into it
        assert inst._epoch.emitted == 1
        inst.check_invariants()
        return inst, requests

    def test_timestamp_count_drift(self):
        inst, (_, second, _) = self.answering()
        second.closed_runs += ((0.5,), 0, 1)
        with pytest.raises(
            AssertionError,
            match=r"instance 0 answer-timing drift: requests \[1\] hold a "
            r"timestamp count other than their answering-token count",
        ):
            inst.check_invariants()

    def test_moved_run_end(self):
        inst, (first, _, _) = self.answering()
        # The same length one step later: the count still holds.
        first.run_lo += 1
        first.run_offset += 1
        with pytest.raises(
            AssertionError,
            match=r"instance 0 answer-run drift: RUNNING requests \[0\] "
            r"have no open run ending at the open epoch's next logged step",
        ):
            inst.check_invariants()

    def test_run_on_a_stale_chunk(self):
        inst, (_, _, third) = self.answering()
        third.run_chunk = array("d", third.run_chunk)  # same times
        with pytest.raises(
            AssertionError,
            match=r"instance 0 answer-run drift: RUNNING requests \[2\]",
        ):
            inst.check_invariants()

    def test_deadline_heap_past_its_bound(self):
        inst, (first, _, _) = self.answering()
        census = inst.requests
        bound = census.heap_bound()
        census._deadlines.extend(
            (math.inf, -k, first) for k in range(1, bound)
        )
        with pytest.raises(
            AssertionError,
            match=rf"instance 0 deadline-heap growth: {bound + 2} entries "
            r"for 3 members",
        ):
            inst.check_invariants()
