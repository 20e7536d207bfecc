"""Cluster-level integration tests: every policy, end to end."""

import gc
import weakref

import pytest

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, InstanceConfig, SchedulerConfig
from repro.core.registry import create_policy, policy_names
from repro.metrics.collector import collect
from repro.perfmodel.unit import UnitPerfModel
from repro.workload.request import Phase, Request
from repro.workload.trace import TraceConfig, build_trace
from repro.workload.datasets import ALPACA_EVAL


def small_cluster(policy, n_instances=2, capacity=4000, decode_s=0.01):
    config = ClusterConfig(
        n_instances=n_instances,
        instance=InstanceConfig(
            kv_capacity_tokens=capacity,
            scheduler=SchedulerConfig(token_quantum=50),
        ),
    )
    return Cluster(config, policy=policy, perf=UnitPerfModel(decode_s))


def small_trace(n=20, seed=5, rate=4.0):
    return build_trace(
        TraceConfig(ALPACA_EVAL, n_requests=n, arrival_rate_per_s=rate, seed=seed)
    )


def tiny_requests(n, reasoning=10, answer=10, spacing=0.2):
    return [
        Request(
            rid=i,
            prompt_len=16,
            reasoning_len=reasoning,
            answer_len=answer,
            arrival_t=i * spacing,
        )
        for i in range(n)
    ]


class TestPolicyMatrix:
    @pytest.mark.parametrize("policy", policy_names())
    def test_every_policy_drains(self, policy):
        cluster = small_cluster(policy)
        requests = tiny_requests(30)
        cluster.run_trace(requests)
        assert cluster.all_finished()
        assert len(cluster.completed) == 30

    @pytest.mark.parametrize("policy", policy_names())
    def test_every_request_generates_all_tokens(self, policy):
        cluster = small_cluster(policy)
        requests = tiny_requests(20)
        cluster.run_trace(requests)
        for req in cluster.completed:
            assert req.generated_tokens == req.total_decode_tokens
            assert req.done_t is not None
            assert len(req.answer_token_times) == req.answer_len

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            small_cluster("lifo")
        with pytest.raises(ValueError):
            create_policy("lifo", ClusterConfig())

    def test_make_intra_scheduler_names(self):
        config = ClusterConfig()

        def name(policy):
            return create_policy(policy, config).make_intra_scheduler(0).name

        assert name("fcfs") == "fcfs"
        assert name("rr") == "rr"
        # The oracle is FCFS; only the harness's KV capacity differs.
        assert name("oracle") == "fcfs"
        assert name("pascal") == "pascal"
        assert name("pascal-nomigration") == "pascal"


class TestDeterminism:
    @pytest.mark.parametrize("policy", ["fcfs", "rr", "pascal"])
    def test_same_seed_same_outcome(self, policy):
        outcomes = []
        for _ in range(2):
            cluster = small_cluster(policy)
            cluster.run_trace(small_trace())
            outcomes.append(
                sorted((r.rid, r.done_t, r.n_migrations) for r in cluster.completed)
            )
        assert outcomes[0] == outcomes[1]


class TestMigrationBehaviour:
    def test_pascal_migrates_at_phase_boundaries(self):
        cluster = small_cluster("pascal", n_instances=4)
        cluster.run_trace(tiny_requests(40, spacing=0.05))
        assert cluster.migrations.in_flight == 0
        assert len(cluster.migrations.transfer_latencies()) > 0
        assert all(r.finished for r in cluster.completed)

    def test_nomigration_never_migrates(self):
        cluster = small_cluster("pascal-nomigration", n_instances=4)
        cluster.run_trace(tiny_requests(40, spacing=0.05))
        assert len(cluster.migrations.transfer_latencies()) == 0

    def test_baselines_never_migrate(self):
        for policy in ("fcfs", "rr", "oracle"):
            cluster = small_cluster(policy, n_instances=4)
            cluster.run_trace(tiny_requests(20, spacing=0.05))
            assert len(cluster.migrations.transfer_latencies()) == 0

    def test_nonadaptive_migrates_at_least_as_much(self):
        adaptive = small_cluster("pascal", n_instances=2, capacity=1600)
        adaptive.run_trace(tiny_requests(40, reasoning=30, answer=30, spacing=0.02))
        always = small_cluster("pascal-nonadaptive", n_instances=2, capacity=1600)
        always.run_trace(tiny_requests(40, reasoning=30, answer=30, spacing=0.02))
        assert len(always.migrations.transfer_latencies()) >= len(
            adaptive.migrations.transfer_latencies()
        )

    def test_landed_transfer_records_are_released(self):
        # Only a landed transfer's latency is kept: its record holds the
        # request and both instances, and must not outlive the landing.
        cluster = small_cluster("pascal", n_instances=4)
        start = cluster.migrations.start
        records = []

        def recording_start(*args):
            record = start(*args)
            records.append(weakref.ref(record))
            return record

        cluster.migrations.start = recording_start
        cluster.run_trace(tiny_requests(40, spacing=0.05))
        assert len(records) == len(cluster.migrations.transfer_latencies())
        assert records
        gc.collect()
        assert [ref for ref in records if ref() is not None] == []

    def test_landed_transfer_records_free_without_the_collector(self):
        # A landed record must not sit in a reference cycle with its
        # TRANSFER_COMPLETE event (whose payload it is): with the cycle
        # collector off, the drain alone has to free every record.
        cluster = small_cluster("pascal", n_instances=4)
        start = cluster.migrations.start
        records = []

        def recording_start(*args):
            record = start(*args)
            records.append(weakref.ref(record))
            return record

        cluster.migrations.start = recording_start
        enabled = gc.isenabled()
        gc.disable()
        try:
            cluster.run_trace(tiny_requests(40, spacing=0.05))
            assert records
            assert [ref for ref in records if ref() is not None] == []
        finally:
            if enabled:
                gc.enable()

    def test_migrated_request_finishes_elsewhere(self):
        cluster = small_cluster("pascal-nonadaptive", n_instances=2)
        requests = tiny_requests(10, spacing=0.01)
        cluster.run_trace(requests)
        migrated = [r for r in requests if r.n_migrations > 0]
        assert migrated, "expected at least one migration"
        for req in migrated:
            assert req.finished
            assert req.transfer_wait_s > 0


class TestPlacementSpreading:
    def test_simultaneous_arrivals_spread_across_instances(self):
        cluster = small_cluster("fcfs", n_instances=4)
        requests = tiny_requests(8, spacing=0.0)
        cluster.run_trace(requests)
        used = {r.instance_id for r in requests}
        assert len(used) == 4


class TestThroughputAccounting:
    def test_throughput_counts_all_decode_tokens(self):
        cluster = small_cluster("fcfs")
        requests = tiny_requests(10)
        cluster.run_trace(requests)
        thr = cluster.throughput_tokens_per_s()
        total = sum(r.total_decode_tokens for r in requests)
        start = min(r.arrival_t for r in requests)
        end = max(r.done_t for r in requests)
        assert thr == pytest.approx(total / (end - start))

    def test_empty_cluster_throughput_zero(self):
        cluster = small_cluster("fcfs")
        assert cluster.throughput_tokens_per_s() == 0.0


class TestCollector:
    def test_collect_snapshot(self):
        cluster = small_cluster("pascal", n_instances=2)
        cluster.run_trace(tiny_requests(20, spacing=0.05))
        metrics = collect(cluster)
        assert metrics.policy == "pascal"
        assert len(metrics.requests) == 20
        assert len(metrics.ttfts()) == 20
        assert metrics.throughput_tokens_per_s > 0
        assert all(t >= 0 for t in metrics.ttfats())

    def test_phase_breakdown_covers_sojourn(self):
        cluster = small_cluster("rr", capacity=1600)
        requests = tiny_requests(15, reasoning=40, answer=40, spacing=0.05)
        cluster.run_trace(requests)
        metrics = collect(cluster)
        for req in metrics.requests:
            total = sum(req.breakdown.values())
            assert total == pytest.approx(req.e2e_latency(), rel=1e-6)

    def test_breakdown_keys_are_shared(self):
        # Every request's breakdown uses the same six (phase, bucket)
        # tuples as keys, not tuples of its own.
        cluster = small_cluster("pascal", n_instances=2, capacity=1600)
        cluster.run_trace(
            tiny_requests(30, reasoning=30, answer=30, spacing=0.02)
        )
        keys = {id(key) for req in cluster.completed for key in req.breakdown}
        assert 0 < len(keys) <= 6

    def test_blocking_latencies_nonnegative(self):
        cluster = small_cluster("pascal", n_instances=2, capacity=1600)
        cluster.run_trace(tiny_requests(30, reasoning=30, answer=30, spacing=0.02))
        metrics = collect(cluster)
        assert all(b >= 0 for b in metrics.blocking_latencies())


class TestTokenConservation:
    @pytest.mark.parametrize("policy", ["fcfs", "rr", "pascal"])
    def test_instance_counters_match_request_totals(self, policy):
        cluster = small_cluster(policy, n_instances=2)
        requests = tiny_requests(25, spacing=0.05)
        cluster.run_trace(requests)
        generated = sum(inst.tokens_generated for inst in cluster.instances)
        expected = sum(r.total_decode_tokens for r in requests)
        assert generated == expected

    @pytest.mark.parametrize("policy", ["fcfs", "rr", "pascal"])
    def test_all_pools_empty_after_drain(self, policy):
        cluster = small_cluster(policy, n_instances=2)
        cluster.run_trace(tiny_requests(25, spacing=0.05))
        for inst in cluster.instances:
            assert inst.pool.gpu_used_blocks == 0
            assert inst.pool.cpu_used_blocks == 0
            inst.pool.check_invariants()
