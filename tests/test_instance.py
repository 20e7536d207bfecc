"""Serving-instance engine-loop tests."""

import pytest

from repro.memory.blocks import OutOfMemoryError
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.workload.request import Phase, ReqState
from tests.conftest import build_instance, simple_request, wire_arrivals


class TestStepLoop:
    def test_prefill_then_decode(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        req = simple_request()
        wire_arrivals(engine, inst, [req])
        engine.run()
        assert req.finished
        assert inst.prefill_steps == 1
        # Prefill emits token 1; remaining 4 tokens decode at 1 s each.
        assert inst.decode_steps == 4
        assert req.done_t == pytest.approx(4.0)

    def test_prefill_emits_first_token(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        req = simple_request(reasoning=1, answer=1)
        wire_arrivals(engine, inst, [req])
        engine.run()
        # Token 1 (the whole reasoning phase) came from the prefill step.
        assert req.reasoning_end_t == pytest.approx(0.0)
        assert req.prefill_end_t == pytest.approx(0.0)

    def test_skip_prefill_requests_never_prefill(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        req = simple_request(reasoning=0, answer=3, skip_prefill=True)
        req.mark_reasoning_precomputed(0.0)
        wire_arrivals(engine, inst, [req])
        engine.run()
        assert req.finished
        assert inst.prefill_steps == 0
        assert req.prefill_done

    def test_continuous_batching_joins_mid_flight(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=640)
        first = simple_request(rid=0, reasoning=10, answer=5, arrival=0.0)
        second = simple_request(rid=1, reasoning=3, answer=2, arrival=3.5)
        wire_arrivals(engine, inst, [first, second])
        engine.run()
        # The late request is admitted while the first is still decoding.
        assert second.first_sched_t < first.done_t
        assert second.finished and first.finished

    def test_completion_frees_memory(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        req = simple_request()
        wire_arrivals(engine, inst, [req])
        engine.run()
        assert inst.pool.gpu_used_blocks == 0
        assert req not in inst.requests

    def test_tokens_generated_counter(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        req = simple_request(reasoning=3, answer=2)
        wire_arrivals(engine, inst, [req])
        engine.run()
        assert inst.tokens_generated == 5


class TestSwapCosts:
    def test_swap_cost_charged_to_next_step(self):
        engine, inst = build_instance(
            RoundRobinScheduler(quantum_tokens=4),
            capacity_tokens=32,
            swap_s_per_token=0.1,
        )
        reqs = [
            simple_request(rid=0, prompt=17, reasoning=8, answer=4, arrival=0.0),
            simple_request(rid=1, prompt=17, reasoning=4, answer=2, arrival=0.5),
        ]
        wire_arrivals(engine, inst, reqs)
        engine.run()
        assert all(r.finished for r in reqs)
        assert inst.swap_out_tokens > 0
        assert inst.swap_in_tokens > 0
        # Swap cost stretched the makespan beyond pure decode time.
        total_tokens = sum(r.total_decode_tokens for r in reqs)
        pure_decode = total_tokens - 2  # two tokens come from prefills
        assert max(r.done_t for r in reqs) > pure_decode * 0.9

    def test_preempted_request_state(self):
        engine, inst = build_instance(
            RoundRobinScheduler(quantum_tokens=4), capacity_tokens=32
        )
        reqs = [
            simple_request(rid=0, prompt=17, reasoning=11, answer=4, arrival=0.0),
            simple_request(rid=1, prompt=17, reasoning=4, answer=2, arrival=0.5),
        ]
        wire_arrivals(engine, inst, reqs)
        engine.run()
        assert reqs[0].n_preemptions >= 1
        assert reqs[0].phase_time(Phase.REASONING, "preempted") > 0


class TestMigrationIntake:
    def test_accept_migrated_allocates_and_queues(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=640)
        req = simple_request(reasoning=0, answer=3)
        req.prefill_done = True
        req.generated_tokens = 0
        req.prompt_len = 20
        inst.accept_migrated(req, 1.0)
        assert inst.pool.holds(req)
        assert req.on_gpu
        assert req.instance_id == 0
        engine.run()
        assert req.finished

    def test_accept_migrated_lands_on_cpu_when_gpu_full(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=32)
        resident = simple_request(rid=0, prompt=30, reasoning=1, answer=1)
        inst.admit(resident, 0.0)
        migrant = simple_request(rid=1, reasoning=0, answer=2)
        migrant.prefill_done = True
        migrant.prompt_len = 20
        inst.accept_migrated(migrant, 0.0)
        assert inst.pool.holds(migrant)
        assert not migrant.on_gpu
        assert migrant.state == ReqState.PREEMPTED

    def test_depart_removes_request(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        req = simple_request()
        inst.admit(req, 0.0)
        inst.depart(req, 0.5)
        assert req not in inst.requests
        assert req.state == ReqState.MIGRATING


class TestCensus:
    def test_pending_kv_counts_unallocated(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        req = simple_request(prompt=10)
        inst.busy = True  # mid-step: admitted but not planned yet
        inst.admit(req, 0.0)
        assert inst.pending_kv_tokens() == 10
        assert inst.total_kv_tokens() == 10
        inst.check_invariants()

    def test_total_kv_includes_pool_and_pending(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        allocated = simple_request(rid=0, prompt=10)
        inst.pool.allocate(allocated, 10)
        inst.requests.add(allocated)
        inst.scheduler.on_admit(allocated, 0.0)
        inst.busy = True
        queued = simple_request(rid=1, prompt=5)
        inst.admit(queued, 0.0)
        assert inst.total_kv_tokens() == 15
        inst.check_invariants()

    def test_pending_kv_drops_on_allocation_and_departure(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        a = simple_request(rid=0, prompt=10)
        b = simple_request(rid=1, prompt=5)
        inst.busy = True
        inst.admit(a, 0.0)
        inst.admit(b, 0.0)
        assert inst.pending_kv_tokens() == 15
        inst.do_allocate(a, 0.0)  # planner placed `a` in GPU memory
        assert inst.pending_kv_tokens() == 5
        inst.depart(b, 0.5)  # `b` migrates away before ever allocating
        assert inst.pending_kv_tokens() == 0
        inst.check_invariants()


class TestLivelockGuard:
    def test_oversized_request_raises(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=32)
        huge = simple_request(prompt=40)
        wire_arrivals(engine, inst, [huge])
        with pytest.raises(OutOfMemoryError, match="exceeds single-request"):
            engine.run()

    def test_exact_fit_request_completes(self):
        # prompt + all decode tokens exactly equal the pool capacity.
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=32)
        req = simple_request(prompt=24, reasoning=4, answer=4)
        wire_arrivals(engine, inst, [req])
        engine.run()
        assert req.finished


class TestTokenLog:
    def test_token_log_records_all_tokens(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        log = {}
        inst.token_log = log
        req = simple_request(reasoning=3, answer=2)
        wire_arrivals(engine, inst, [req])
        engine.run()
        assert len(log[req.rid]) == 5
        assert log[req.rid] == sorted(log[req.rid])


class TestRequestSet:
    """The resident-request registry iterates in admission order.

    Regression for the PAS003 self-host finding: ``self.requests`` was a
    plain ``set``, so census iteration ran in hash order — stable within
    one process but not across machines or Python builds.
    """

    def test_iteration_is_admission_order(self):
        from repro.serving.instance import RequestSet

        reqs = RequestSet()
        order = [simple_request(rid=r) for r in (5, 1, 9, 3)]
        for req in order:
            reqs.add(req)
        assert [r.rid for r in reqs] == [5, 1, 9, 3]
        assert len(reqs) == 4

    def test_discard_and_readd_moves_to_tail(self):
        from repro.serving.instance import RequestSet

        reqs = RequestSet()
        a, b, c = (simple_request(rid=r) for r in (1, 2, 3))
        for req in (a, b, c):
            reqs.add(req)
        reqs.discard(b)
        assert b not in reqs and a in reqs
        reqs.add(b)
        assert [r.rid for r in reqs] == [1, 3, 2]
        reqs.discard(simple_request(rid=99))  # absent: no-op, no raise

    def test_deadline_heap_stays_bounded_without_queries(self):
        # Policies with no SLO filter never ask for t_i, so no query pops
        # the entries of answering members that have left.
        from repro.serving.instance import RequestSet

        reqs = RequestSet()
        stays = simple_request(rid=0, reasoning=0, answer=5)
        stays.mark_reasoning_precomputed(0.0)
        reqs.add(stays)
        for rid in range(1, 1000):
            passing = simple_request(rid=rid, reasoning=0, answer=5)
            passing.mark_reasoning_precomputed(0.0)
            reqs.add(passing)
            reqs.discard(passing)
        assert len(reqs._deadlines) <= 2 * len(reqs) + 65
        # The member that stayed kept its entry through the rebuilds.
        assert not reqs.answering_slo_ok(1.0)

    def test_instance_census_uses_admission_order(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=256)
        order = [simple_request(rid=r, arrival=0.0) for r in (7, 2, 5)]
        for req in order:
            inst.admit(req, 0.0)
        assert [r.rid for r in inst.requests] == [7, 2, 5]
        assert [r.rid for r in inst.live_requests()] == [7, 2, 5]
