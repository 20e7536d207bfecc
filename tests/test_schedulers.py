"""Intra-instance scheduling policy tests.

All scenarios use the unit-cost model (Figure 2 semantics): one decode
step = one time unit, prefill and swap are free, requests occupy one
16-token block each unless stated otherwise.
"""

import pytest

from repro.core.pascal import (
    ANSWERING_BAND,
    REASONING_BAND,
    PascalScheduler,
    band_of,
)
from repro.harness.runner import oracle_capacity_tokens
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.workload.request import Phase, ReqState, Request
from tests.conftest import build_instance


def make_requests(n, reasoning=4, answer=4, spacing=1.0, prompt=1):
    return [
        Request(
            rid=i,
            prompt_len=prompt,
            reasoning_len=reasoning,
            answer_len=answer,
            arrival_t=i * spacing,
        )
        for i in range(n)
    ]


def submit_all(engine, inst, requests):
    from repro.sim.events import EventKind

    engine.register(
        EventKind.ARRIVAL, lambda now, req: inst.admit(req, now)
    )
    for req in requests:
        engine.schedule(req.arrival_t, EventKind.ARRIVAL, req)


class TestFigure2Scenario:
    """The paper's three-request illustration (capacity = 2 requests)."""

    def fig2_requests(self):
        reqs = make_requests(3, reasoning=4, answer=4)
        reqs[2].answer_len = 3
        return reqs

    def test_oracle_runs_everything_immediately(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=48)
        reqs = self.fig2_requests()
        submit_all(engine, inst, reqs)
        engine.run()
        # Request C never waits: first scheduled at its arrival time.
        assert reqs[2].first_sched_t == pytest.approx(2.0)
        assert all(r.finished for r in reqs)
        assert all(r.n_preemptions == 0 for r in reqs)

    def test_fcfs_blocks_request_c_until_a_finishes(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=32)
        reqs = self.fig2_requests()
        submit_all(engine, inst, reqs)
        engine.run()
        # A finishes its 8 tokens before C is admitted.
        assert reqs[2].first_sched_t >= reqs[0].done_t
        assert reqs[2].phase_time(Phase.REASONING, "blocked") >= 4.0

    def test_rr_admits_c_after_a_quantum(self):
        engine, inst = build_instance(
            RoundRobinScheduler(quantum_tokens=4), capacity_tokens=32
        )
        reqs = self.fig2_requests()
        submit_all(engine, inst, reqs)
        engine.run()
        # C joins once A exhausts its 4-token quantum: far earlier than
        # A's completion.
        assert reqs[2].first_sched_t < reqs[0].done_t
        assert reqs[0].n_preemptions >= 1

    def test_rr_finishes_everything(self):
        engine, inst = build_instance(
            RoundRobinScheduler(quantum_tokens=4), capacity_tokens=32
        )
        reqs = self.fig2_requests()
        submit_all(engine, inst, reqs)
        engine.run()
        assert all(r.finished for r in reqs)


class TestFCFS:
    def test_priority_is_arrival_order(self):
        sched = FCFSScheduler()
        a = Request(rid=2, prompt_len=1, reasoning_len=1, answer_len=1, arrival_t=0.0)
        b = Request(rid=1, prompt_len=1, reasoning_len=1, answer_len=1, arrival_t=1.0)
        assert sched.priority_key(a) < sched.priority_key(b)

    def test_no_quantum(self):
        assert FCFSScheduler().quantum_tokens is None

    def test_preempts_latest_arrival_under_growth_pressure(self):
        # Two requests fit initially; growth forces the later one out.
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=48)
        reqs = make_requests(2, reasoning=16, answer=16, prompt=1)
        submit_all(engine, inst, reqs)
        engine.run()
        assert reqs[0].n_preemptions == 0
        assert reqs[1].n_preemptions >= 1
        assert all(r.finished for r in reqs)


class TestRoundRobin:
    def test_fresh_requests_outrank_veterans(self):
        sched = RoundRobinScheduler(quantum_tokens=4)
        veteran = Request(rid=1, prompt_len=1, reasoning_len=9, answer_len=1)
        sched.on_admit(veteran, 0.0)
        sched.on_quantum_expired(veteran, 1.0)
        fresh = Request(rid=2, prompt_len=1, reasoning_len=1, answer_len=1)
        sched.on_admit(fresh, 2.0)
        assert sched.priority_key(fresh) < sched.priority_key(veteran)

    def test_veterans_cycle_in_requeue_order(self):
        sched = RoundRobinScheduler(quantum_tokens=4)
        first = Request(rid=1, prompt_len=1, reasoning_len=9, answer_len=1)
        second = Request(rid=2, prompt_len=1, reasoning_len=9, answer_len=1)
        sched.on_admit(first, 0.0)
        sched.on_admit(second, 0.0)
        sched.on_quantum_expired(second, 1.0)
        sched.on_quantum_expired(first, 2.0)
        # second requeued before first, so it now leads the ring.
        assert sched.priority_key(second) < sched.priority_key(first)

    def test_quantum_expiry_resets_counter_and_levels_up(self):
        sched = RoundRobinScheduler(quantum_tokens=4)
        req = Request(rid=1, prompt_len=1, reasoning_len=9, answer_len=1)
        sched.on_admit(req, 0.0)
        req.quantum_used = 4
        sched.on_quantum_expired(req, 1.0)
        assert req.level == 1
        assert req.quantum_used == 0

    def test_invalid_quantum_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler(quantum_tokens=0)

    def test_quantum_enforced_in_execution(self):
        engine, inst = build_instance(
            RoundRobinScheduler(quantum_tokens=4), capacity_tokens=32
        )
        reqs = make_requests(2, reasoning=8, answer=8, spacing=0.0)
        submit_all(engine, inst, reqs)
        engine.run()
        # Both consumed 16 tokens = at least 3 quantum expiries each.
        assert all(r.level >= 3 for r in reqs)


class TestOracle:
    def test_capacity_covers_whole_workload(self):
        reqs = make_requests(5, reasoning=100, answer=50, prompt=10)
        cap = oracle_capacity_tokens(reqs)
        assert cap >= sum(10 + 150 for _ in reqs)

    def test_oracle_never_preempts_with_ample_memory(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=100_000)
        reqs = make_requests(10, reasoning=20, answer=20, spacing=0.5)
        submit_all(engine, inst, reqs)
        engine.run()
        assert all(r.n_preemptions == 0 for r in reqs)
        assert all(
            r.phase_time(Phase.REASONING, "blocked") < 1.5 for r in reqs
        )


class TestPascalBands:
    def test_reasoning_band_outranks_answering(self):
        sched = PascalScheduler()
        answering = Request(rid=1, prompt_len=1, reasoning_len=0, answer_len=5)
        reasoning = Request(rid=2, prompt_len=1, reasoning_len=5, answer_len=5)
        sched.on_admit(answering, 0.0)
        sched.on_admit(reasoning, 1.0)
        assert sched.priority_key(reasoning) < sched.priority_key(answering)

    def test_band_of(self):
        reasoning = Request(rid=1, prompt_len=1, reasoning_len=5, answer_len=5)
        assert band_of(reasoning) == REASONING_BAND
        reasoning.demoted = True
        assert band_of(reasoning) == ANSWERING_BAND
        answering = Request(rid=2, prompt_len=1, reasoning_len=0, answer_len=5)
        assert band_of(answering) == ANSWERING_BAND

    def test_phase_transition_requeues_fresh(self):
        sched = PascalScheduler()
        req = Request(rid=1, prompt_len=1, reasoning_len=1, answer_len=5)
        sched.on_admit(req, 0.0)
        req.level = 3
        req.quantum_used = 250
        sched.on_phase_transition_local(req, 5.0)
        assert req.level == 0
        assert req.quantum_used == 0

    def test_demotion_threshold(self):
        sched = PascalScheduler(demotion_threshold_tokens=100)
        req = Request(rid=1, prompt_len=1, reasoning_len=500, answer_len=5)
        sched.on_admit(req, 0.0)
        req.generated_tokens = 101
        sched.refresh([req], 1.0)
        assert req.demoted
        assert band_of(req) == ANSWERING_BAND
        assert req.level == 0

    def test_no_demotion_below_threshold(self):
        sched = PascalScheduler(demotion_threshold_tokens=100)
        req = Request(rid=1, prompt_len=1, reasoning_len=500, answer_len=5)
        sched.on_admit(req, 0.0)
        req.generated_tokens = 100
        sched.refresh([req], 1.0)
        assert not req.demoted

    def test_census_counts(self):
        # The band census (r_i, a_i) belongs to the instance monitor.
        from repro.serving.monitor import InstanceMonitor

        _, inst = build_instance(PascalScheduler())
        reasoning = Request(rid=1, prompt_len=1, reasoning_len=5, answer_len=5)
        fresh_answer = Request(rid=2, prompt_len=1, reasoning_len=0, answer_len=5)
        stale_answer = Request(rid=3, prompt_len=1, reasoning_len=0, answer_len=5)
        stale_answer.level = 2
        for req in (reasoning, fresh_answer, stale_answer):
            inst.requests.add(req)
        monitor = InstanceMonitor()
        assert monitor.reasoning_count(inst) == 1
        assert monitor.fresh_answering_count(inst) == 1
        # Demotion moves a request out of the reasoning band.
        inst.scheduler.demote(reasoning, inst.requests)
        assert monitor.reasoning_count(inst) == 0
        assert monitor.fresh_answering_count(inst) == 2

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PascalScheduler(quantum_tokens=0)
        with pytest.raises(ValueError):
            PascalScheduler(demotion_threshold_tokens=0)

    def test_reasoning_preempts_answering_in_execution(self):
        # An answering-phase request holds the GPU; a reasoning request
        # arrives and must take priority (and memory) away from it.
        engine, inst = build_instance(
            PascalScheduler(quantum_tokens=4), capacity_tokens=32
        )
        answering = Request(
            rid=0, prompt_len=17, reasoning_len=0, answer_len=12,
            arrival_t=0.0, skip_prefill=True,
        )
        answering.mark_reasoning_precomputed(0.0)
        reasoning = Request(
            rid=1, prompt_len=17, reasoning_len=10, answer_len=1,
            arrival_t=3.0,
        )
        submit_all(engine, inst, [answering, reasoning])
        engine.run()
        assert answering.n_preemptions >= 1
        # The reasoning request ran without interruption once admitted.
        assert reasoning.phase_time(Phase.REASONING, "preempted") == 0.0
        assert all(r.finished for r in (answering, reasoning))


class TestBatchFormation:
    def test_resident_requests_keep_running_when_memory_allows(self):
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        reqs = make_requests(3, reasoning=4, answer=4, spacing=0.0)
        submit_all(engine, inst, reqs)
        engine.run()
        assert all(r.n_preemptions == 0 for r in reqs)

    def test_head_of_line_no_leapfrog(self):
        # A huge request at the queue head must block smaller later ones
        # under FCFS (no skip-ahead).
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        big = Request(rid=0, prompt_len=33, reasoning_len=20, answer_len=1,
                      arrival_t=0.0)
        running = Request(rid=1, prompt_len=17, reasoning_len=30, answer_len=1,
                          arrival_t=0.0)
        small = Request(rid=2, prompt_len=1, reasoning_len=2, answer_len=1,
                        arrival_t=1.0)
        # Order: running(0), big(0.5), small(1). big needs 3 blocks; with
        # running holding 2, big cannot be admitted; small must NOT jump in.
        big.arrival_t = 0.5
        submit_all(engine, inst, [running, big, small])
        engine.run()
        assert big.first_sched_t is not None
        assert small.first_sched_t >= big.first_sched_t

    def test_batch_respects_max_batch_size(self):
        from repro.config import InstanceConfig, SchedulerConfig

        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=10_000)
        inst.config = InstanceConfig(
            kv_capacity_tokens=10_000,
            scheduler=SchedulerConfig(max_batch_size=2),
        )
        reqs = make_requests(4, reasoning=4, answer=4, spacing=0.0)
        submit_all(engine, inst, reqs)
        engine.run()
        assert all(r.finished for r in reqs)
        # 32 tokens total, 4 emitted by prefill steps, batch cap 2:
        # at least 14 decode steps.
        assert inst.decode_steps >= 14
