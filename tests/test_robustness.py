"""Failure-injection and robustness tests.

Exercises the error paths a production system must fail loudly on:
impossible workloads, misuse of the engine, degenerate traces, and
boundary conditions in the scheduling machinery.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, InstanceConfig, SchedulerConfig
from repro.memory.blocks import OutOfMemoryError
from repro.perfmodel.unit import UnitPerfModel
from repro.schedulers.base import StepKind
from repro.schedulers.fcfs import FCFSScheduler
from repro.workload.request import ReqState, Request
from tests.conftest import build_instance
from tests.test_instance import simple_request, wire_arrivals


def unit_cluster(policy="pascal", n_instances=2, capacity=1600, cpu_gb=256):
    config = ClusterConfig(
        n_instances=n_instances,
        instance=InstanceConfig(
            kv_capacity_tokens=capacity,
            cpu_kv_bytes=cpu_gb * 1e9,
            scheduler=SchedulerConfig(token_quantum=50),
        ),
    )
    return Cluster(config, policy=policy, perf=UnitPerfModel(0.02))


class TestImpossibleWorkloads:
    def test_request_bigger_than_gpu_fails_loudly(self):
        cluster = unit_cluster(capacity=160)
        huge = Request(rid=0, prompt_len=100, reasoning_len=100, answer_len=10)
        with pytest.raises(OutOfMemoryError, match="single-request"):
            cluster.run_trace([huge])

    def test_cpu_pool_exhaustion_raises(self):
        # A CPU pool too small to absorb a preempted request must refuse
        # the swap instead of corrupting accounting.
        engine, inst = build_instance(
            FCFSScheduler(), capacity_tokens=64, cpu_tokens=16
        )
        # Both fit initially; the first request's growth then forces the
        # second out, and the CPU pool is too small to take its KV.
        first = simple_request(rid=0, prompt=17, reasoning=20, answer=4)
        second = simple_request(rid=1, prompt=17, reasoning=20, answer=10,
                                arrival=0.5)
        wire_arrivals(engine, inst, [first, second])
        with pytest.raises(OutOfMemoryError):
            engine.run()


class TestDegenerateTraces:
    def test_empty_trace_completes_immediately(self):
        cluster = unit_cluster()
        assert cluster.run_trace([]) == []
        assert cluster.all_finished()

    def test_single_token_answer(self):
        cluster = unit_cluster()
        req = Request(rid=0, prompt_len=4, reasoning_len=0, answer_len=1)
        cluster.run_trace([req])
        assert req.finished
        assert req.ttft() is not None

    def test_duplicate_arrival_times(self):
        cluster = unit_cluster()
        requests = [
            Request(rid=i, prompt_len=8, reasoning_len=5, answer_len=5,
                    arrival_t=1.0)
            for i in range(10)
        ]
        cluster.run_trace(requests)
        assert cluster.all_finished()

    def test_very_long_single_request(self):
        cluster = unit_cluster(capacity=4000)
        req = Request(rid=0, prompt_len=16, reasoning_len=1500, answer_len=1500)
        cluster.run_trace([req])
        assert req.finished
        assert req.generated_tokens == 3000


class TestEngineMisuse:
    def test_double_submit_runs_twice_the_requests(self):
        cluster = unit_cluster()
        batch_a = [Request(rid=0, prompt_len=8, reasoning_len=3, answer_len=3)]
        batch_b = [
            Request(rid=1, prompt_len=8, reasoning_len=3, answer_len=3)
        ]
        cluster.submit(batch_a)
        cluster.submit(batch_b)
        cluster.run()
        assert cluster.all_finished()
        assert len(cluster.completed) == 2

    def test_rerun_after_drain_is_harmless(self):
        cluster = unit_cluster()
        req = Request(rid=0, prompt_len=8, reasoning_len=3, answer_len=3)
        cluster.run_trace([req])
        cluster.run()  # queue is empty; returns immediately
        assert len(cluster.completed) == 1


class TestSchedulingBoundaries:
    def test_quantum_of_one_token(self):
        cluster = unit_cluster(policy="rr")
        config = ClusterConfig(
            n_instances=1,
            instance=InstanceConfig(
                kv_capacity_tokens=160,
                scheduler=SchedulerConfig(token_quantum=1),
            ),
        )
        cluster = Cluster(config, policy="rr", perf=UnitPerfModel(0.01))
        requests = [
            Request(rid=i, prompt_len=8, reasoning_len=10, answer_len=10,
                    arrival_t=0.0)
            for i in range(4)
        ]
        cluster.run_trace(requests)
        assert cluster.all_finished()
        # Every request burned many one-token quanta.
        assert all(r.level >= 10 for r in requests)

    def test_block_sized_requests_pack_exactly(self):
        # Requests sized exactly to blocks must tile the pool without slack.
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=64)
        requests = [
            simple_request(rid=i, prompt=10, reasoning=3, answer=2,
                           arrival=0.0)
            for i in range(4)
        ]
        wire_arrivals(engine, inst, requests)
        engine.run()
        assert all(r.finished for r in requests)

    def test_prefill_budget_splits_large_prompt_waves(self):
        config = ClusterConfig(
            n_instances=1,
            instance=InstanceConfig(
                kv_capacity_tokens=100_000,
                scheduler=SchedulerConfig(max_prefill_tokens=4096),
            ),
        )
        cluster = Cluster(config, policy="fcfs", perf=UnitPerfModel(0.01))
        requests = [
            Request(rid=i, prompt_len=3000, reasoning_len=2, answer_len=2,
                    arrival_t=0.0)
            for i in range(4)
        ]
        cluster.run_trace(requests)
        assert cluster.all_finished()
        # 3000-token prompts cannot batch more than one per 4096 budget.
        assert cluster.instances[0].prefill_steps >= 4

    @pytest.mark.parametrize("prompt_len", [8192, 8193])
    def test_prompt_beyond_the_prefill_budget_fails_loudly(self, prompt_len):
        # No prefill step can take more than max_prefill_tokens, so a
        # longer prompt would hold its KV and never run, and the run would
        # end silently with it QUEUED.  Exactly the budget still runs.
        config = ClusterConfig(
            n_instances=1,
            instance=InstanceConfig(kv_capacity_tokens=100_000),
        )
        assert config.instance.scheduler.max_prefill_tokens == 8192
        cluster = Cluster(config, policy="fcfs", perf=UnitPerfModel(0.01))
        requests = [
            Request(rid=0, prompt_len=prompt_len, reasoning_len=2,
                    answer_len=2, arrival_t=0.0),
            Request(rid=1, prompt_len=10, reasoning_len=2, answer_len=2,
                    arrival_t=0.0),
        ]
        if prompt_len > 8192:
            with pytest.raises(ValueError, match="exceeds max_prefill_tokens"):
                cluster.run_trace(requests)
        else:
            cluster.run_trace(requests)
            assert cluster.all_finished()


class TestStateMachineGuards:
    def test_token_after_finish_rejected(self):
        req = Request(rid=0, prompt_len=4, reasoning_len=1, answer_len=1)
        req.set_state(ReqState.RUNNING, 0.0)
        req.record_token(1.0)
        req.record_token(2.0)
        assert req.finished
        with pytest.raises(RuntimeError):
            req.record_token(3.0)

    def test_batched_member_that_is_not_running_rejected(self):
        # The epoch ends at `short`'s end-of-think token, where `long` is
        # at no milestone.  A member that left RUNNING behind the
        # instance's back must still fail loudly there, not take the
        # plain-token path.
        engine, inst = build_instance(FCFSScheduler(), capacity_tokens=640)
        long = simple_request(rid=0, reasoning=50, answer=5)
        short = simple_request(rid=1, reasoning=4, answer=5)
        wire_arrivals(engine, inst, [long, short])
        while not (inst.busy and inst.plan.kind is StepKind.DECODE):
            assert engine.step()
        assert inst.plan.requests == [long, short]
        long.set_state(ReqState.QUEUED, engine.now)
        with pytest.raises(RuntimeError, match="generated a token while QUEUED"):
            engine.run()

    def test_deterministic_under_duplicate_seeds(self):
        results = []
        for _ in range(2):
            cluster = unit_cluster(policy="pascal-nonadaptive")
            requests = [
                Request(rid=i, prompt_len=8, reasoning_len=20, answer_len=20,
                        arrival_t=0.05 * i)
                for i in range(20)
            ]
            cluster.run_trace(requests)
            results.append([r.done_t for r in requests])
        assert results[0] == results[1]
